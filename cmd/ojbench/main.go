// Command ojbench regenerates the paper's experimental tables and figures
// (Table 1, Figure 5(a), Figure 5(b)) on the scaled TPC-H database, plus
// the ablation and scaling experiments described in DESIGN.md. The
// experiments are defined and timed by internal/bench; ojbench prints them.
//
// Usage:
//
//	ojbench -experiment all -sf 0.01
//	ojbench -experiment table1
//	ojbench -experiment fig5a -sf 0.02
//	ojbench -experiment fig5b
//	ojbench -experiment ablations
//	ojbench -experiment scaling
//	ojbench -experiment fig5a -trace trace.json -metrics   # observability
//	ojbench -experiment fig5a -pprof localhost:6060
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strings"
	"time"

	"ojv/internal/bench"
	"ojv/internal/obs"
	"ojv/internal/view"
)

func main() {
	experiment := flag.String("experiment", "all", "table1 | fig5a | fig5b | ablations | scaling | all")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor (the paper runs SF=1)")
	seed := flag.Int64("seed", 1, "generator seed")
	reps := flag.Int("reps", 3, "repetitions per measured point (median reported)")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of every maintenance run to this file")
	metrics := flag.Bool("metrics", false, "print a metrics snapshot (JSON) after the experiments")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while experiments run")
	flag.Parse()
	selected, err := selectExperiments(*experiment)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ojbench: %v\n", err)
		os.Exit(2)
	}
	benchReps = *reps
	if *tracePath != "" {
		benchOpts.Tracer = obs.NewTracer()
	}
	if *metrics {
		benchOpts.Metrics = obs.NewRegistry()
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "ojbench: pprof: %v\n", err)
			}
		}()
		fmt.Printf("pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}

	for _, e := range selected {
		if err := e.run(*sf, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "ojbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
	}

	if tracer := benchOpts.Tracer; tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ojbench: %v\n", err)
			os.Exit(1)
		}
		if err := tracer.WriteChromeTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ojbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: wrote %d maintenance spans to %s (load in chrome://tracing or Perfetto)\n",
			len(tracer.Roots()), *tracePath)
	}
	if benchOpts.Metrics != nil {
		fmt.Println("metrics:")
		if err := benchOpts.Metrics.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "ojbench: writing metrics: %v\n", err)
			os.Exit(1)
		}
	}
}

// experiment is one value of -experiment and the code it runs.
type experiment struct {
	name string
	run  func(sf float64, seed int64) error
}

// experiments are the runnable experiments, in the order "all" runs them.
var experiments = []experiment{
	{"table1", table1},
	{"fig5a", func(sf float64, seed int64) error { return fig5(sf, seed, true) }},
	{"fig5b", func(sf float64, seed int64) error { return fig5(sf, seed, false) }},
	{"ablations", ablations},
	{"scaling", scaling},
}

// selectExperiments resolves an -experiment value: one experiment by name,
// or every one for "all". Any other value is an error listing the valid
// names.
func selectExperiments(name string) ([]experiment, error) {
	if name == "all" {
		return experiments, nil
	}
	names := make([]string, len(experiments))
	for i, e := range experiments {
		if e.name == name {
			return experiments[i : i+1], nil
		}
		names[i] = e.name
	}
	return nil, fmt.Errorf("unknown experiment %q; valid: %s, all", name, strings.Join(names, ", "))
}

var benchReps = 3

// benchOpts carries -trace and -metrics into every view the experiments
// build.
var benchOpts view.Options

// run measures the points of one experiment and prints its machine-readable
// result line, tagged with GOMAXPROCS so runs on different machines can be
// compared. Durations marshal as nanoseconds.
func run(name string, points []bench.Point) ([]bench.Fig5Result, error) {
	results, err := bench.Run(points, benchReps)
	if err == nil {
		emitBench(name, results)
	}
	return results, err
}

func emitBench(experiment string, data any) {
	b, err := json.Marshal(map[string]any{
		"experiment": experiment,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"data":       data,
	})
	if err != nil {
		return
	}
	fmt.Printf("BENCH %s\n", b)
}

// printGrid prints one line per key and one column per Figure 5 method:
// the median maintenance time and, in brackets, the primary delta's rows.
// Results come key-major, in bench.Fig5Methods order.
func printGrid(head string, results []bench.Fig5Result, key func(bench.Fig5Result) string) {
	fmt.Printf("%-10s", head)
	for _, m := range bench.Fig5Methods {
		fmt.Printf(" %20s", m)
	}
	for i, r := range results {
		if i%len(bench.Fig5Methods) == 0 {
			fmt.Printf("\n%-10s", key(r))
		}
		fmt.Printf(" %20s", fmt.Sprintf("%s [%d]", r.Elapsed.Round(10*time.Microsecond), r.PrimaryRows))
	}
	fmt.Print("\n")
}

func table1(sf float64, seed int64) error {
	fmt.Printf("== Table 1: terms in view V3 and rows affected when inserting %d lineitem rows (SF=%g) ==\n",
		bench.ScaleN(60000, sf), sf)
	rows, err := bench.Table1(sf, seed, benchOpts)
	if err != nil {
		return err
	}
	emitBench("table1", rows)
	fmt.Printf("%-6s %14s %14s %20s %16s\n", "Term", "Cardinality", "Affected", "Paper cardinality", "Paper affected")
	for i, r := range rows {
		p := bench.Table1Paper[i]
		fmt.Printf("%-6s %14d %14d %20d %16d\n", r.Term, r.Cardinality, r.Affected, p.Cardinality, p.Affected)
	}
	fmt.Println()
	return nil
}

func fig5(sf float64, seed int64, insert bool) error {
	name, label, verb := "fig5a", "Figure 5(a)", "inserted"
	if !insert {
		name, label, verb = "fig5b", "Figure 5(b)", "deleted"
	}
	fmt.Printf("== %s: maintenance cost for V3, lineitem rows %s (SF=%g) ==\n", label, verb, sf)
	results, err := run(name, bench.Fig5(sf, seed, insert, bench.Fig5Methods, benchOpts))
	if err != nil {
		return err
	}
	printGrid("paperN", results, func(r bench.Fig5Result) string { return fmt.Sprint(r.PaperN) })
	// Changeset accounting: every measured run of a changeset-backed method
	// must have committed (a rollback would mean the timing covered a failed,
	// reverted run).
	commits, rollbacks, undo := 0, 0, 0
	for _, r := range results {
		switch {
		case r.Method == bench.MethodGK:
		case r.Committed:
			commits++
		default:
			rollbacks++
		}
		undo += r.UndoRecords
	}
	fmt.Printf("changesets: commits=%d rollbacks=%d undo-records=%d\n\n", commits, rollbacks, undo)
	return nil
}

func ablations(sf float64, seed int64) error {
	fmt.Printf("== Ablations (SF=%g): each pair differs in one maintenance switch ==\n", sf)
	results, err := run("ablations", bench.Ablations(sf, seed, benchOpts))
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("  %-24s %-15s N=%-5d %10s  primary=%-5d secondary=%d\n",
			r.Label, r.Batch, r.N, r.Elapsed.Round(10*time.Microsecond), r.PrimaryRows, r.SecondaryRows)
	}
	fmt.Println()
	return nil
}

func scaling(_ float64, seed int64) error {
	fmt.Println("== Scaling (extension): insert 120 lineitems while the database grows ==")
	results, err := run("scaling", bench.Scaling(seed, benchOpts))
	if err != nil {
		return err
	}
	printGrid("SF", results, func(r bench.Fig5Result) string { return fmt.Sprint(r.SF) })
	fmt.Println()
	return nil
}
