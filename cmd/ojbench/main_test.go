package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ojv/internal/obs"
	"ojv/internal/view"
)

const testSF = 0.002

// withBenchGlobals installs tiny-run bench globals (one rep, tracing and
// metrics on) and restores the previous values when the test ends.
func withBenchGlobals(t *testing.T) (*obs.Tracer, *obs.Registry) {
	t.Helper()
	prevReps, prevOpts := benchReps, benchOpts
	t.Cleanup(func() { benchReps, benchOpts = prevReps, prevOpts })
	benchReps = 1
	benchOpts = view.Options{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()}
	return benchOpts.Tracer, benchOpts.Metrics
}

// TestFig5WithObservation drives the Figure 5(a) experiment at a tiny
// scale factor with tracing and metrics wired in, then checks the trace
// exports as valid Chrome trace_event JSON and the metrics snapshot
// contains the maintenance counters the experiment must have produced.
func TestFig5WithObservation(t *testing.T) {
	tracer, metrics := withBenchGlobals(t)
	if err := fig5(testSF, 1, true); err != nil {
		t.Fatal(err)
	}
	if len(tracer.Roots()) == 0 {
		t.Fatal("experiment recorded no spans")
	}
	for _, r := range tracer.Roots() {
		if err := r.Validate(); err != nil {
			t.Error(err)
		}
	}
	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	buf.Reset()
	if err := metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]int64
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	for _, name := range []string{"view.commits", "view.rows.primary", "exec.rows.scanned"} {
		if snap[name] == 0 {
			t.Errorf("metric %s is zero after a Figure 5 run", name)
		}
	}
}

// TestSelectExperiments pins -experiment resolution: a name selects its
// experiment, "all" selects every one in order, and anything else is an
// error naming the valid values.
func TestSelectExperiments(t *testing.T) {
	got, err := selectExperiments("fig5b")
	if err != nil || len(got) != 1 || got[0].name != "fig5b" {
		t.Fatalf(`selectExperiments("fig5b") = %v, %v`, got, err)
	}
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(experiments) {
		t.Fatalf(`selectExperiments("all") = %d experiments, %v; want %d`, len(all), err, len(experiments))
	}
	for _, name := range []string{"fig5", "", "ALL", "table1 "} {
		got, err := selectExperiments(name)
		if err == nil {
			t.Errorf("selectExperiments(%q) = %d experiments, want an error", name, len(got))
			continue
		}
		for _, e := range experiments {
			if !strings.Contains(err.Error(), e.name) {
				t.Errorf("selectExperiments(%q) error %q does not name %s", name, err, e.name)
			}
		}
	}
}

// TestTable1Experiment covers the Table 1 driver end to end at a tiny
// scale factor.
func TestTable1Experiment(t *testing.T) {
	withBenchGlobals(t)
	if err := table1(testSF, 1); err != nil {
		t.Fatal(err)
	}
}
