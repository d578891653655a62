// Command benchmark is the repository's benchmark: four closed-loop
// workloads over the ojv library, nine end-to-end metrics at reference
// speed, and a per-module cost ledger from a separate traced run. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	workload := flag.String("workload", "", "workload to run: stmt-sync, group-commit, bulk-delta or multi-view")
	seed := flag.Int64("seed", defaultSeed, "seed of every generated row and statement")
	seconds := flag.Float64("seconds", 22, "length of the measured segment")
	trace := flag.Int("trace", 0, "0: measured run, end-to-end metrics; 1: traced run, per-layer metrics")
	aa := flag.Int("aa", 0, "noise self-check: run every workload 2k times under two labels and compare")
	outDir := flag.String("out", "benchmark/out", "directory for the traced run's spans and the A/A check's run outputs")
	flag.Parse()

	if *aa > 0 {
		os.Exit(runAA(*aa, *seed, *seconds, *outDir))
	}
	cfg := fullConfig(*workload, *seed, *seconds, *outDir)
	var out *outcome
	var err error
	if *trace != 0 {
		out, err = runTraced(cfg)
	} else {
		out, err = runMeasured(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printOutcome(out)
	if !out.Correct {
		fmt.Fprintln(os.Stderr, "benchmark: outputs are not correct")
		os.Exit(1)
	}
}

// printOutcome prints every metric by name with its unit, one per line, and
// then the machine-readable result as the last line.
func printOutcome(out *outcome) {
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-40s %18.6f %s\n", name, out.Metrics[name].Value, out.Metrics[name].Unit)
	}
	names = names[:0]
	for name := range out.diag {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("diag %-35s %18.6f\n", name, out.diag[name])
	}
	for i, w := range out.windows {
		fmt.Printf("window %2d  %6.2f s  calls %7d  rows/s %10.1f  stmt p50 %9.2f us  p95 %11.2f us  visible p50 %8.3f ms  read p50 %7.3f ms  p95 %7.3f ms\n",
			i, float64(w.endNs-w.startNs)/1e9, w.calls, w.rate, w.stmtP50, w.stmtP95, w.visibleP50, w.readP50, w.readP95)
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always encode
	}
	fmt.Println(string(line))
}
