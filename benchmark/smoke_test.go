package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func loadBenchmarkJSON(t *testing.T) benchmarkSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func toyConfig(t *testing.T, workload string) runConfig {
	return runConfig{
		workload: workload, seed: defaultSeed, seconds: 0.2, sc: toyScale,
		setups: 1, minWindow: 2 * time.Second, think: time.Millisecond,
		outDir: t.TempDir(),
	}
}

// checkMetrics fails unless got holds exactly the declared metrics, each
// once, finite, in its declared unit.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []specMetric) {
	t.Helper()
	seen := map[string]bool{}
	for _, w := range want {
		if seen[w.Name] {
			t.Errorf("%s: BENCHMARK.json lists %s twice", what, w.Name)
		}
		seen[w.Name] = true
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is missing", what, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: metric %s is in %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s is %v", what, w.Name, m.Value)
		}
	}
	for name := range got {
		if !seen[name] {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", what, name)
		}
	}
}

// TestSmoke runs every workload at toy scale, measured and traced, and holds
// the output against BENCHMARK.json. It is the hook CI runs.
func TestSmoke(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	start := time.Now()
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the program", i, w.Name, workloadNames[i])
		}
		measured, err := runMeasured(toyConfig(t, w.Name))
		if err != nil {
			t.Fatalf("%s: measured run: %v", w.Name, err)
		}
		if !measured.Correct || measured.Failed != 0 || measured.Attempted < 1 {
			t.Errorf("%s: measured run: correct=%v attempted=%d failed=%d", w.Name, measured.Correct, measured.Attempted, measured.Failed)
		}
		checkMetrics(t, w.Name+" measured", measured.Metrics, spec.EndToEnd)
		for name, m := range measured.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, name, m.Value)
			}
		}

		cfg := toyConfig(t, w.Name)
		traced, err := runTraced(cfg)
		if err != nil {
			t.Fatalf("%s: traced run: %v", w.Name, err)
		}
		if !traced.Correct || traced.Failed != 0 {
			t.Errorf("%s: traced run: correct=%v failed=%d", w.Name, traced.Correct, traced.Failed)
		}
		checkMetrics(t, w.Name+" traced", traced.Metrics, spec.PerLayer)
		if st, err := os.Stat(filepath.Join(cfg.outDir, w.Name+".trace.json")); err != nil || st.Size() == 0 {
			t.Errorf("%s: the traced run left no spans behind: %v", w.Name, err)
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("the smoke runs took %v, want under 10 s", d)
	}
}

// Two traced runs on one seed must agree exactly on every count the program
// makes: a count that wobbles cannot carry a claim.
func TestTracedCountsRepeat(t *testing.T) {
	for _, w := range workloadNames {
		a, err := runTraced(toyConfig(t, w))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b, err := runTraced(toyConfig(t, w))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		checked := 0
		for _, d := range perLayer {
			counted := strings.HasPrefix(d.name, "exec.") || strings.HasPrefix(d.name, "pipeline.rows.") ||
				strings.HasPrefix(d.name, "view.rows.") || strings.HasPrefix(d.name, "view.shared.") ||
				strings.HasPrefix(d.name, "view.epoch.") || d.name == "view.undo.records_per_row" ||
				d.name == "view.maintain.runs" || d.name == "ojv.flush.count" ||
				d.name == "pipeline.coalesce_ratio" || d.name == "pipeline.prevalidated_ratio" ||
				d.name == "pipeline.queue.depth_mean" || d.name == "ojv.read.rows_per_read"
			if !counted {
				continue
			}
			checked++
			if a.Metrics[d.name].Value != b.Metrics[d.name].Value {
				t.Errorf("%s: %s was %v, then %v", w, d.name, a.Metrics[d.name].Value, b.Metrics[d.name].Value)
			}
		}
		if checked < 30 {
			t.Errorf("%s: only %d count metrics were compared", w, checked)
		}
	}
}
