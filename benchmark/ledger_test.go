package main

import "testing"

func span(name string, start, dur float64, attrs map[string]string, kids ...*node) *node {
	return &node{name: name, start: start, dur: dur, attrs: attrs, kids: kids}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		what string
		n    *node
		want float64
	}{
		{"leaf", span("a", 0, 10, nil), 10},
		{"sequential children", span("a", 0, 10, nil, span("b", 1, 2, nil), span("c", 5, 3, nil)), 5},
		{"overlapping children count once", span("a", 0, 10, nil, span("b", 1, 5, nil), span("c", 3, 5, nil)), 3},
		{"nested cover", span("a", 0, 10, nil, span("b", 1, 8, nil), span("c", 2, 2, nil)), 2},
		{"child clipped to the parent", span("a", 5, 10, nil, span("b", 0, 8, nil)), 7},
		{"children out of order", span("a", 0, 10, nil, span("c", 6, 2, nil), span("b", 1, 2, nil)), 6},
	} {
		if got := selfTime(c.n); !near(got, c.want) {
			t.Errorf("%s: self time %v, want %v", c.what, got, c.want)
		}
	}
}

// One flush with two components running at the same time: the maintenance
// roots of both overlap both components in time, so only the table tells
// whose they are.
func TestAttributeByContainmentAndTable(t *testing.T) {
	stepA := span("flush.step", 12, 30, map[string]string{"table": "g0a"})
	stepB := span("flush.step", 13, 30, map[string]string{"table": "g1a"})
	compA := span("flush.component", 11, 40, map[string]string{"tables": "g0a,g0b"}, stepA, span("commit", 45, 5, nil))
	compB := span("flush.component", 11, 42, map[string]string{"tables": "g1a,g1b"}, stepB, span("commit", 46, 6, nil))
	vflush := span("view.flush", 10, 45, nil, span("plan", 10, 1, nil), compA, compB)
	roots := []*node{
		span("view.maintain", 1, 1, nil), // before every call: a stray
		span(spanStmt, 2, 3, nil),
		span(spanFlush, 9, 47, nil),
		vflush,
		span("view.maintain", 14, 10, map[string]string{"table": "g0a", "view": "x"}),
		span("view.maintain", 15, 10, map[string]string{"table": "g1a", "view": "y"}),
		span("changeset.commit", 46, 2, map[string]string{"view": "x"}),
		span(spanStmt, 60, 2, nil),
		span("view.maintain", 60.5, 1, map[string]string{"table": "t"}),
		span("changeset.commit", 61.6, 0.2, nil),
	}
	l := buildLedger(roots)
	if len(l.calls) != 3 || len(l.strays) != 1 {
		t.Fatalf("got %d calls and %d strays, want 3 and 1", len(l.calls), len(l.strays))
	}
	if len(stepA.kids) != 1 || stepA.kids[0].attrs["view"] != "x" {
		t.Errorf("component A's step adopted %v, want view x's run", stepA.kids)
	}
	if len(stepB.kids) != 1 || stepB.kids[0].attrs["view"] != "y" {
		t.Errorf("component B's step adopted %v, want view y's run", stepB.kids)
	}
	if kids := compA.kids[1].kids; len(kids) != 1 || kids[0].name != "changeset.commit" {
		t.Errorf("the commit phase adopted %v, want the changeset commit", kids)
	}
	// The synchronous statement: 2 long, 1.2 of it inside view spans.
	if got := selfTime(l.calls[2]); !near(got, 0.8) {
		t.Errorf("statement self time %v, want 0.8", got)
	}
	// The flush call: everything but the 2 outside view.flush is covered.
	if got := l.get(spanFlush).self; !near(got, 2) {
		t.Errorf("flush self time %v, want 2", got)
	}
	// Both plans are called "plan"; the flush's must not be counted as a
	// maintenance run's.
	if l.get("flush.plan").count != 1 || l.get("plan").count != 0 {
		t.Errorf("flush plan counted %d times as flush.plan and %d as plan", l.get("flush.plan").count, l.get("plan").count)
	}
	if got := l.get("view.maintain"); got.count != 3 || !near(got.busy, 21) {
		t.Errorf("view.maintain totals %+v, want 3 runs, 21 busy", got)
	}
	// Component spans sum to more than the flush took: that is the overlap.
	if got := l.get("flush.component").busy / vflush.dur; got <= 1 {
		t.Errorf("component overlap %v, want > 1", got)
	}
}

func TestLedgerSumsRows(t *testing.T) {
	eval := span("primary.eval", 1, 5, map[string]string{"rows": "7"},
		span("exec.join.index", 1, 5, map[string]string{"rows": "7"},
			span("exec.scan", 1, 4, map[string]string{"rows": "3"})),
		span("exec.select", 2, 1, map[string]string{"rows": "2"}))
	l := buildLedger([]*node{span(spanStmt, 0, 10, nil, span("view.maintain", 1, 6, nil, eval))})
	if got := l.execRows("scan", execKinds); got != 3 {
		t.Errorf("scan rows %v, want 3", got)
	}
	if got := l.execRows("other", execKinds); got != 2 {
		t.Errorf("other rows %v, want 2 (the select)", got)
	}
}
