package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan("root")
	if s != nil {
		t.Fatalf("nil tracer must hand out nil spans")
	}
	c := s.Child("child")
	c.SetInt("rows", 3).SetStr("strategy", "from-view")
	c.End()
	s.End()
	if s.Name() != "" || s.Duration() != 0 || s.Ended() || s.Find("x") != nil {
		t.Fatalf("nil span accessors must return zero values")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("nil span Validate: %v", err)
	}
	if got := tr.Roots(); got != nil {
		t.Fatalf("nil tracer Roots = %v", got)
	}
	tr.Reset()

	var r *Registry
	r.Add("x", 1)
	r.Counter("x").Add(2)
	if r.Counter("x").Value() != 0 {
		t.Fatalf("nil counter must read 0")
	}
	r.Histogram("h").Observe(5)
	if r.Histogram("h").Count() != 0 || r.Histogram("h").Sum() != 0 || r.Histogram("h").Max() != 0 {
		t.Fatalf("nil histogram must read 0")
	}
	if r.Snapshot() != nil {
		t.Fatalf("nil registry Snapshot must be nil")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil registry WriteJSON: %v", err)
	}
}

func TestSpanNestingAndValidate(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan("view.maintain").SetStr("table", "T")
	a := root.Child("primary.eval").SetInt("rows", 7)
	time.Sleep(time.Millisecond)
	a.End()
	b := root.Child("secondary")
	term := b.Child("term").SetStr("term", "RST")
	term.End()
	b.End()
	root.End()

	if err := root.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if root.Duration() <= 0 {
		t.Fatalf("root duration must be positive")
	}
	if a.Duration() > root.Duration() {
		t.Fatalf("child duration %v exceeds parent %v", a.Duration(), root.Duration())
	}
	if got, ok := a.AttrInt("rows"); !ok || got != 7 {
		t.Fatalf("AttrInt(rows) = %d, %v", got, ok)
	}
	if got, ok := root.AttrStr("table"); !ok || got != "T" {
		t.Fatalf("AttrStr(table) = %q, %v", got, ok)
	}
	if root.Find("term") != term {
		t.Fatalf("Find(term) did not locate the nested span")
	}
	if len(tr.Roots()) != 1 {
		t.Fatalf("Roots() = %d, want 1", len(tr.Roots()))
	}

	// An unended child is a validation error.
	tr2 := NewTracer()
	r2 := tr2.StartSpan("root")
	r2.Child("leak")
	r2.End()
	if err := r2.Validate(); err == nil || !strings.Contains(err.Error(), "never ended") {
		t.Fatalf("Validate on unended child = %v, want 'never ended'", err)
	}

	tr.Reset()
	if len(tr.Roots()) != 0 {
		t.Fatalf("Reset must clear roots")
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := NewTracer()
	s := tr.StartSpan("s")
	time.Sleep(time.Millisecond)
	s.End()
	d := s.Duration()
	time.Sleep(time.Millisecond)
	s.End()
	if s.Duration() != d {
		t.Fatalf("second End changed duration: %v -> %v", d, s.Duration())
	}
}

// TestEndAll: EndAll ends the open spans of a tree — also below a span a
// deferred End already closed — within their parents' durations, and leaves
// an already-ended span's duration alone.
func TestEndAll(t *testing.T) {
	root := NewTracer().StartSpan("root")
	done := root.Child("done")
	done.End()
	d := done.Duration()
	root.Child("open").Child("deep")
	closed := root.Child("closed")
	orphan := closed.Child("orphan")
	closed.End()
	time.Sleep(time.Millisecond)
	root.EndAll()
	if err := root.Validate(); err != nil {
		t.Fatalf("Validate after EndAll: %v", err)
	}
	if done.Duration() != d {
		t.Fatalf("EndAll changed an ended span's duration: %v -> %v", d, done.Duration())
	}
	if orphan.Duration() > closed.Duration() {
		t.Fatalf("orphan ended after its parent: %v > %v", orphan.Duration(), closed.Duration())
	}
	var nilSpan *Span
	nilSpan.EndAll()
}

func TestConcurrentChildren(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan("root")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := root.Child("work").SetInt("worker", int64(w))
				c.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	if err := root.Validate(); err != nil {
		t.Fatalf("Validate after concurrent children: %v", err)
	}
	if got := len(root.Children()); got != 400 {
		t.Fatalf("children = %d, want 400", got)
	}
}

func TestRegistryCountersAndHistograms(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Counter("exec.rows.scanned").Add(2)
				r.Histogram("rows").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("exec.rows.scanned").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	h := r.Histogram("rows")
	if h.Count() != 800 {
		t.Fatalf("hist count = %d, want 800", h.Count())
	}
	if h.Sum() != 8*99*100/2 {
		t.Fatalf("hist sum = %d, want %d", h.Sum(), 8*99*100/2)
	}
	if h.Max() != 99 {
		t.Fatalf("hist max = %d, want 99", h.Max())
	}
	snap := r.Snapshot()
	if snap["exec.rows.scanned"] != 1600 || snap["rows.count"] != 800 || snap["rows.max"] != 99 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestWriteJSONIsValid(t *testing.T) {
	r := NewRegistry()
	r.Add("b", 2)
	r.Add("a", 1)
	r.Histogram("h").Observe(4)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var got map[string]int64
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if got["a"] != 1 || got["b"] != 2 || got["h.count"] != 1 || got["h.sum"] != 4 {
		t.Fatalf("decoded = %v", got)
	}
	// Keys must be emitted sorted for deterministic diffs.
	if ia, ib := strings.Index(buf.String(), `"a"`), strings.Index(buf.String(), `"b"`); ia > ib {
		t.Fatalf("keys not sorted:\n%s", buf.String())
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan("view.maintain").SetStr("strategy", "from-view")
	c := root.Child("primary.eval").SetInt("rows", 5)
	time.Sleep(time.Millisecond)
	c.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var f struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(f.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(f.TraceEvents))
	}
	if f.TraceEvents[0].Name != "view.maintain" || f.TraceEvents[0].Ph != "X" {
		t.Fatalf("root event = %+v", f.TraceEvents[0])
	}
	if f.TraceEvents[0].Args["strategy"] != "from-view" {
		t.Fatalf("root args = %v", f.TraceEvents[0].Args)
	}
	if f.TraceEvents[1].Args["rows"] != "5" {
		t.Fatalf("child args = %v", f.TraceEvents[1].Args)
	}
	if f.TraceEvents[1].Dur > f.TraceEvents[0].Dur {
		t.Fatalf("child dur %v exceeds root dur %v", f.TraceEvents[1].Dur, f.TraceEvents[0].Dur)
	}
	if f.TraceEvents[1].Ts < f.TraceEvents[0].Ts {
		t.Fatalf("child ts %v before root ts %v", f.TraceEvents[1].Ts, f.TraceEvents[0].Ts)
	}

	// A nil tracer still writes a loadable (empty) trace.
	var nilBuf bytes.Buffer
	var nilTr *Tracer
	if err := nilTr.WriteChromeTrace(&nilBuf); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	if err := json.Unmarshal(nilBuf.Bytes(), &f); err != nil {
		t.Fatalf("nil trace not valid JSON: %v", err)
	}
}

func TestRenderTreeDeterministic(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan("view.maintain").SetStr("table", "T").SetInt("batches", 1)
	c := root.Child("primary.eval").SetInt("rows", 3)
	c.End()
	root.End()

	got := RenderTree(tr.Roots(), false)
	want := "view.maintain batches=1 table=T\n  primary.eval rows=3\n"
	if got != want {
		t.Fatalf("RenderTree = %q, want %q", got, want)
	}
	withDur := RenderTree(tr.Roots(), true)
	if !strings.Contains(withDur, "(") {
		t.Fatalf("RenderTree with durations missing duration: %q", withDur)
	}
}
