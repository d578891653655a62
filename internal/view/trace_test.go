package view

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"ojv/internal/obs"
)

// The golden-trace tests pin the recorded span trees (and the annotated
// maintenance scripts derived from them) for two fixed views, one per
// secondary-delta strategy. Durations are nondeterministic, so the span
// goldens render without durations and the script goldens normalize the
// observed times; everything else — span names, nesting, row counts,
// strategy tags — must match byte for byte. Regenerate with:
//
//	go test ./internal/view -run TestGoldenTrace -update

var updateGolden = flag.Bool("update", false, "rewrite the golden trace files in testdata")

// goldenCompare diffs got against the named testdata file, rewriting the
// file instead when -update is set.
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (re-run with -update if the change is intended)\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// runTracedV1 materializes V1 with tracing on, then performs one fixed
// insert and one fixed delete against T, returning the tracer. Row counts
// and span order are deterministic.
func runTracedV1(t *testing.T, strategy Strategy) *obs.Tracer {
	t.Helper()
	tracer := obs.NewTracer()
	cat, m := newV1Maintainer(t, false, Options{
		Strategy: strategy,
		Tracer:   tracer,
		Metrics:  obs.NewRegistry(),
	})
	tracer.Reset() // drop spans recorded during materialization checks
	rows := insertRowsFor(cat, "T", 2, 7, false)
	runInsert(t, cat, m, "T", rows)
	keys := deletableKeys(t, cat, "T", 30, false)
	runDelete(t, cat, m, "T", keys)
	if err := Check(m); err != nil {
		t.Fatal(err)
	}
	return tracer
}

func TestGoldenTraceFromView(t *testing.T) {
	tracer := runTracedV1(t, StrategyAuto)
	assertWellFormed(t, tracer)
	goldenCompare(t, "trace_v1_fromview.golden", obs.RenderTree(tracer.Roots(), false))
}

func TestGoldenTraceFromBase(t *testing.T) {
	tracer := runTracedV1(t, StrategyFromBase)
	assertWellFormed(t, tracer)
	goldenCompare(t, "trace_v1_frombase.golden", obs.RenderTree(tracer.Roots(), false))
}

// observedTime matches the duration part of script annotations and the
// parenthesized durations RenderTree appends; both are normalized in the
// script golden.
var observedTime = regexp.MustCompile(`time=\S+`)

// TestGoldenAnnotatedScript pins the annotated maintenance script for the
// V1 insert-into-T run, with observed durations normalized to time=?.
func TestGoldenAnnotatedScript(t *testing.T) {
	tracer := runTracedV1(t, StrategyAuto)
	var insertRoot *obs.Span
	for _, r := range tracer.Roots() {
		if r.Name() != "view.maintain" {
			continue
		}
		if op, _ := r.AttrStr("op"); op == "insert" {
			insertRoot = r
		}
	}
	if insertRoot == nil {
		t.Fatal("no insert maintain root recorded")
	}
	// The script renders from a maintainer with the same definition; rebuild
	// one on a fresh catalog (the plan is structural, not data-dependent).
	_, m := newV1Maintainer(t, false, Options{Strategy: StrategyAuto})
	script, err := m.AnnotatedMaintenanceScript("T", true, insertRoot)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "script_v1_insert_annotated.golden", observedTime.ReplaceAllString(script, "time=?"))
}

// assertWellFormed checks the structural invariants of every recorded
// root: all spans ended, children start within and run no longer than
// their parents, and each maintain root carries the taxonomy attributes.
func assertWellFormed(t *testing.T, tracer *obs.Tracer) {
	t.Helper()
	roots := tracer.Roots()
	if len(roots) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, r := range roots {
		if err := r.Validate(); err != nil {
			t.Errorf("root %s: %v", r.Name(), err)
		}
		if r.Name() != "view.maintain" {
			continue
		}
		for _, key := range []string{"view", "table", "op", "strategy"} {
			if _, ok := r.AttrStr(key); !ok {
				t.Errorf("maintain root missing attribute %q", key)
			}
		}
		// Serial phases are disjoint intervals inside the root, so child
		// durations must sum to no more than the root's.
		var sum int64
		for _, c := range r.Children() {
			sum += c.Duration().Nanoseconds()
		}
		if root := r.Duration().Nanoseconds(); sum > root {
			t.Errorf("children of %s sum to %dns, exceeding the root's %dns", r.Name(), sum, root)
		}
	}
}
