package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The A/A check answers "how far apart are two sets of runs of the same
// code?" the way the driver asks it: every workload is run 2k times, each
// run with a seed of its own, alternating between two labels; per metric it
// prints each label's median and quartiles, each label's spread (the
// distance between the quartiles as a share of the median) and how much
// worse label B's median is than label A's, next to the bound BENCHMARK.json
// fixes. Any spread or gap beyond its bound fails the check (set-up time's
// spread is exempt, as it is for the driver).

// benchmarkSpec is the part of BENCHMARK.json the harness reads: the A/A
// check needs direction and bound, the smoke test names and units.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(raw, &spec)
}

func runAA(k int, seed int64, seconds float64, outDir string) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -aa runs from the repository root:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}

	// values[workload][metric][label] are the runs' values in run order.
	values := map[string]map[string]*[2][]float64{}
	slowest := map[string]float64{}
	for i := 0; i < 2*k; i++ {
		for _, w := range workloadNames {
			t0 := time.Now()
			out, err := oneRun(self, w, seed+int64(i), seconds, filepath.Join(outDir, "aa"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w, seed+int64(i), err)
				return 1
			}
			slowest[w] = max(slowest[w], time.Since(t0).Seconds())
			if values[w] == nil {
				values[w] = map[string]*[2][]float64{}
			}
			for name, mv := range out.Metrics {
				if values[w][name] == nil {
					values[w][name] = &[2][]float64{}
				}
				values[w][name][i%2] = append(values[w][name][i%2], mv.Value)
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %s done\n", i+1, 2*k, w)
		}
	}

	fmt.Printf("A/A check: %d runs per workload (%d per label), seeds %d..%d, %g s measured per run\n\n",
		2*k, k, seed, seed+int64(2*k)-1, seconds)
	fmt.Println("| workload | metric | unit | A median (q1..q3) | B median (q1..q3) | spread A | spread B | B worse by | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	failed := 0
	for _, w := range workloadNames {
		for _, e := range spec.EndToEnd {
			v := values[w][e.Name]
			if v == nil {
				fmt.Printf("| %s | %s | | | | | | | | MISSING |\n", w, e.Name)
				failed++
				continue
			}
			a, b := v[0], v[1]
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma
			if e.Better == "higher" {
				gap = -gap
			}
			verdict := "ok"
			spreadFails := e.Name != "setup_s" && (spread(a) > e.Bound || spread(b) > e.Bound)
			if gap > e.Bound || spreadFails {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("| %s | %s | %s | %s | %s | %.1f %% | %.1f %% | %+.1f %% | %.0f %% | %s |\n",
				w, e.Name, e.Unit, summary(a), summary(b), 100*spread(a), 100*spread(b), 100*gap, 100*e.Bound, verdict)
		}
	}
	fmt.Println()
	for _, w := range workloadNames {
		fmt.Printf("slowest %s run: %.1f s wall\n", w, slowest[w])
	}
	if failed > 0 {
		fmt.Printf("\n%d metric(s) outside their bound\n", failed)
		return 1
	}
	fmt.Println("\nevery spread and every gap is inside its bound")
	return 0
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%s (%s..%s)", short(median(xs)), short(q1), short(q3))
}

func short(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

// oneRun runs one measured run of this binary, keeps what it printed under
// dir (the per-window lines explain a noisy run) and parses the result on
// its last output line.
func oneRun(self, workload string, seed int64, seconds float64, dir string) (*outcome, error) {
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.txt", workload, seed)), stdout, 0o644); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var out outcome
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !out.Correct {
		return nil, fmt.Errorf("run reported incorrect outputs")
	}
	return &out, nil
}
