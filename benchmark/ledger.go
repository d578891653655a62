package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ojv"
)

// The ledger turns the traced pass's spans into per-module busy and self
// times. The harness opens one root span round every facade call (ojv.stmt,
// ojv.flush); the program opens its own roots inside those calls
// (view.flush, view.maintain, changeset.commit). The ledger hangs every
// program root under the harness call — and, inside a flush, under the step
// or commit phase — it ran in, so each call becomes one tree whose self
// times add up to the call's duration.

// Harness span names.
const (
	spanStmt  = "ojv.stmt"
	spanFlush = "ojv.flush"
)

// node is one span with the absolute timing the obs package keeps private,
// recovered through its Chrome export. Times are microseconds since the
// tracer's epoch.
type node struct {
	name       string
	start, dur float64
	attrs      map[string]string
	kids       []*node
}

func (n *node) end() float64 { return n.start + n.dur }

func (n *node) contains(o *node) bool { return n.start <= o.start && o.end() <= n.end() }

// spanForest converts the tracer's forest into nodes. The Chrome export
// lists spans depth-first in the same order Roots and Children do, so the
// two walks are zipped.
func spanForest(tr *ojv.Tracer) ([]*node, error) {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Ts   float64
			Dur  float64
			Args map[string]string
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		return nil, err
	}
	events := file.TraceEvents
	next := 0
	var walk func(s *ojv.Span) (*node, error)
	walk = func(s *ojv.Span) (*node, error) {
		if next >= len(events) || events[next].Name != s.Name() {
			return nil, fmt.Errorf("ledger: span %s does not line up with the exported trace at event %d", s.Name(), next)
		}
		ev := events[next]
		next++
		n := &node{name: ev.Name, start: ev.Ts, dur: ev.Dur, attrs: ev.Args}
		for _, c := range s.Children() {
			k, err := walk(c)
			if err != nil {
				return nil, err
			}
			n.kids = append(n.kids, k)
		}
		return n, nil
	}
	var roots []*node
	for _, r := range tr.Roots() {
		n, err := walk(r)
		if err != nil {
			return nil, err
		}
		roots = append(roots, n)
	}
	return roots, nil
}

// structural are the spans a program root may be hung under: the phases of a
// flush. Operator and shared-subtree spans also cover maintenance runs in
// time, but they are not what started them.
var structural = map[string]bool{
	spanStmt: true, spanFlush: true,
	"view.flush": true, "flush.component": true, "flush.step": true, "commit": true,
}

// sameTable reports whether span k may be the parent of root r as far as
// their table attributes say: a step's table, or a component's table list,
// must name the table the maintenance run is for. With two components
// running at once, time containment alone is ambiguous.
func sameTable(k, r *node) bool {
	rt, ok := r.attrs["table"]
	if !ok {
		return true
	}
	if kt, ok := k.attrs["table"]; ok {
		return kt == rt
	}
	if kts, ok := k.attrs["tables"]; ok {
		for _, t := range strings.Split(kts, ",") {
			if t == rt {
				return true
			}
		}
		return false
	}
	return true
}

// deepest returns the deepest structural span under n that contains r.
func deepest(n, r *node) *node {
	for _, k := range n.kids {
		if structural[k.name] && k.contains(r) && sameTable(k, r) {
			return deepest(k, r)
		}
	}
	return n
}

// attribute groups the forest into one tree per facade call. Roots appear in
// start order and facade calls do not overlap, so a program root belongs to
// the harness root before it; it is hung under the deepest structural span
// of that call that contains it. Program roots outside every call are
// returned as strays.
func attribute(roots []*node) (calls []*node, strays []*node) {
	var cur *node
	for _, r := range roots {
		switch {
		case r.name == spanStmt || r.name == spanFlush:
			cur = r
			calls = append(calls, r)
		case cur == nil || !cur.contains(r):
			strays = append(strays, r)
		default:
			p := deepest(cur, r)
			p.kids = append(p.kids, r)
		}
	}
	return calls, strays
}

// selfTime is the span's duration minus the part of it its children cover.
// Children may overlap (concurrent components, a shared producer that stays
// open across its consumers), so the cover is the union of their intervals,
// clipped to the span.
func selfTime(n *node) float64 {
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(n.kids))
	for _, k := range n.kids {
		lo, hi := max(k.start, n.start), min(k.end(), n.end())
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, edge := 0.0, n.start
	for _, v := range ivs {
		if v.hi <= edge {
			continue
		}
		covered += v.hi - max(v.lo, edge)
		edge = v.hi
	}
	return n.dur - covered
}

// totals accumulates one span name.
type totals struct {
	count      int
	busy, self float64 // microseconds
	// rows sums the spans' "rows" attribute (what an operator emitted, what
	// a phase applied).
	rows float64
}

// ledger is the traced pass by span name.
type ledger struct {
	calls  []*node
	strays []*node
	sums   map[string]*totals
}

// ledgerName is the key a span is summed under. Two different phases are
// both called "plan": the flush's (the pipeline's plan) and a maintenance
// run's (the view's plan lookup); they are told apart by their parent.
func ledgerName(n, parent *node) string {
	if n.name == "plan" && parent != nil && parent.name == "view.flush" {
		return "flush.plan"
	}
	return n.name
}

func buildLedger(roots []*node) *ledger {
	l := &ledger{sums: map[string]*totals{}}
	l.calls, l.strays = attribute(roots)
	var walk func(n, parent *node)
	walk = func(n, parent *node) {
		name := ledgerName(n, parent)
		t := l.sums[name]
		if t == nil {
			t = &totals{}
			l.sums[name] = t
		}
		t.count++
		t.busy += n.dur
		t.self += selfTime(n)
		if r, err := strconv.ParseFloat(n.attrs["rows"], 64); err == nil {
			t.rows += r
		}
		for _, k := range n.kids {
			walk(k, n)
		}
	}
	for _, c := range l.calls {
		walk(c, nil)
	}
	return l
}

// get returns the totals of a span name (zero when it never occurred).
func (l *ledger) get(name string) totals {
	if t := l.sums[name]; t != nil {
		return *t
	}
	return totals{}
}

// execRows sums the rows the operator spans of one kind emitted. Kind
// "other" collects every exec span not in kinds.
func (l *ledger) execRows(kind string, kinds []string) float64 {
	if kind != "other" {
		return l.get("exec." + kind).rows
	}
	known := map[string]bool{}
	for _, k := range kinds {
		known["exec."+k] = true
	}
	sum := 0.0
	for name, t := range l.sums {
		if strings.HasPrefix(name, "exec.") && !known[name] {
			sum += t.rows
		}
	}
	return sum
}
