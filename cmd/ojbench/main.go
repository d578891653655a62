// Command ojbench regenerates the paper's experimental tables and figures
// (Table 1, Figure 5(a), Figure 5(b)) on the scaled TPC-H database, plus
// the ablation experiments described in DESIGN.md.
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
	"sort"
	"strings"
	"time"

	"ojv/internal/bench"
	"ojv/internal/fixture"
	"ojv/internal/obs"
	"ojv/internal/rel"
	"ojv/internal/view"
)

func main() {
	experiment := flag.String("experiment", "all", "table1 | fig5a | fig5b | ablations | scaling | all")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor (the paper runs SF=1)")
	seed := flag.Int64("seed", 1, "generator seed")
	reps := flag.Int("reps", 3, "repetitions per measured point (median reported)")
	batchSize := flag.Int("batchsize", 0, "executor pipeline batch size in rows (0 = exec default)")
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
	benchOpts = view.Options{BatchSize: *batchSize}
	if *tracePath != "" {
		benchTracer = obs.NewTracer()
		benchOpts.Tracer = benchTracer
	}
	if *metrics {
		benchMetrics = obs.NewRegistry()
		benchOpts.Metrics = benchMetrics
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

	if benchTracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ojbench: %v\n", err)
			os.Exit(1)
		}
		if err := benchTracer.WriteChromeTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ojbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: wrote %d maintenance spans to %s (load in chrome://tracing or Perfetto)\n",
			len(benchTracer.Roots()), *tracePath)
	}
	if benchMetrics != nil {
		fmt.Println("metrics:")
		if err := benchMetrics.WriteJSON(os.Stdout); err != nil {
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
	{"scaling", func(float64, int64) error { return scaling() }},
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

// benchTracer and benchMetrics are non-nil when -trace / -metrics are set;
// benchOpts carries them into every view the experiments build.
var (
	benchTracer  *obs.Tracer
	benchMetrics *obs.Registry
)

var benchReps = 3

// benchOpts carries -batchsize, -trace and -metrics into every non-GK
// experiment.
var benchOpts view.Options

// emitBench prints one machine-readable result line per experiment, tagged
// with the batch size and GOMAXPROCS so runs on different machines and
// flag combinations can be compared. Durations marshal as nanoseconds.
func emitBench(experiment string, data any) {
	b, err := json.Marshal(map[string]any{
		"experiment": experiment,
		"batchsize":  benchOpts.BatchSize,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"data":       data,
	})
	if err != nil {
		return
	}
	fmt.Printf("BENCH %s\n", b)
}

// scaling runs the extension experiment: a fixed insert batch against a
// growing database.
func scaling() error {
	fmt.Println("== Scaling (extension): insert 120 lineitems while the database grows ==")
	sfs := []float64{0.002, 0.005, 0.01, 0.02, 0.04}
	methods := []bench.Method{bench.MethodCore, bench.MethodOJV, bench.MethodGK}
	results, err := bench.RunScalingOpts(sfs, 120, methods, benchReps, benchOpts, nil)
	if err != nil {
		return err
	}
	emitBench("scaling", results)
	fmt.Printf("%-10s", "SF")
	for _, m := range methods {
		fmt.Printf(" %16s", m)
	}
	fmt.Println()
	for _, sf := range sfs {
		fmt.Printf("%-10g", sf)
		for _, m := range methods {
			for _, r := range results {
				if r.SF == sf && r.Method == m {
					fmt.Printf(" %16s", r.Elapsed.Round(10*time.Microsecond))
				}
			}
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

func table1(sf float64, seed int64) error {
	fmt.Printf("== Table 1: terms in view V3 and rows affected when inserting %d lineitem rows (SF=%g) ==\n",
		bench.ScaleN(60000, sf), sf)
	rows, err := bench.Table1Opts(sf, seed, benchOpts)
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
	label, verb := "Figure 5(a)", "inserted"
	if !insert {
		label, verb = "Figure 5(b)", "deleted"
	}
	fmt.Printf("== %s: maintenance cost for V3, lineitem rows %s (SF=%g) ==\n", label, verb, sf)
	results, err := bench.RunFig5Opts(sf, seed, insert, bench.Fig5Methods, benchReps, benchOpts, nil)
	if err != nil {
		return err
	}
	name := "fig5a"
	if !insert {
		name = "fig5b"
	}
	emitBench(name, results)
	fmt.Printf("%-10s", "paperN")
	for _, m := range bench.Fig5Methods {
		fmt.Printf(" %16s", m)
	}
	fmt.Println()
	for _, paperN := range bench.PaperNs {
		fmt.Printf("%-10d", paperN)
		for _, m := range bench.Fig5Methods {
			for _, r := range results {
				if r.PaperN == paperN && r.Method == m {
					fmt.Printf(" %16s", r.Elapsed.Round(10*time.Microsecond))
				}
			}
		}
		fmt.Println()
	}
	// Changeset accounting: every measured run of a changeset-backed method
	// must have committed (a rollback would mean the timing covered a failed,
	// reverted run).
	commits, rollbacks, undo := 0, 0, 0
	for _, r := range results {
		if r.Method == bench.MethodGK {
			continue
		}
		if r.Commits > 0 {
			commits += r.Commits
		} else {
			rollbacks++
		}
		undo += r.UndoRecords
	}
	fmt.Printf("changesets: commits=%d rollbacks=%d undo-records=%d\n\n", commits, rollbacks, undo)
	return nil
}

func ablations(sf float64, seed int64) error {
	fmt.Printf("== Ablations (SF=%g) ==\n", sf)

	// Secondary-delta source: from view vs from base tables (Section 5).
	for _, method := range []bench.Method{bench.MethodOJV, bench.MethodOJVBase} {
		el, err := medianOf(benchReps, func() (time.Duration, error) {
			n := bench.ScaleN(60000, sf)
			s, err := bench.NewSetupWith(sf, seed, method, n, benchOpts)
			if err != nil {
				return 0, err
			}
			r, err := s.RunInsert(n)
			return r.Elapsed, err
		})
		if err != nil {
			return err
		}
		fmt.Printf("  secondary-source %-14s insert60000: %s\n", method, el.Round(10*time.Microsecond))
	}

	// Theorem 3 (reduced maintenance graph): customer inserts with and
	// without FK exploitation.
	for _, disable := range []bool{false, true} {
		disable := disable
		el, err := medianOf(benchReps, func() (time.Duration, error) { return customerInsert(sf, seed, disable) })
		if err != nil {
			return err
		}
		fmt.Printf("  theorem3 fk-graph-disabled=%-5v customer-insert: %s\n", disable, el.Round(10*time.Microsecond))
	}

	// Left-deep vs bushy ΔV^D and FK SimplifyTree, on the abstract V1
	// (where the bushy tree joins two base tables).
	for _, cfg := range []struct {
		name string
		opts view.Options
	}{
		{"left-deep+fk", view.Options{}},
		{"bushy", view.Options{DisableLeftDeep: true}},
		{"no-fk-simplify", view.Options{DisableFKSimplify: true}},
	} {
		el, err := medianOf(benchReps, func() (time.Duration, error) { return v1Insert(cfg.opts) })
		if err != nil {
			return err
		}
		fmt.Printf("  deltatree %-16s T-insert: %s\n", cfg.name, el.Round(10*time.Microsecond))
	}
	fmt.Println()
	return nil
}

// medianOf runs f n times and returns the median duration.
func medianOf(n int, f func() (time.Duration, error)) (time.Duration, error) {
	if n < 1 {
		n = 1
	}
	var ds []time.Duration
	for i := 0; i < n; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], nil
}

func customerInsert(sf float64, seed int64, disableFKGraph bool) (time.Duration, error) {
	s, err := bench.NewSetupOpts(sf, seed, view.Options{
		DisableFKGraph:    disableFKGraph,
		DisableFKSimplify: disableFKGraph,
	})
	if err != nil {
		return 0, err
	}
	rows := s.DB.NewCustomers(bench.ScaleN(15000, sf))
	if err := s.DB.Catalog.Insert("customer", rows); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if _, err := s.Target.OnInsertRows("customer", rows); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func v1Insert(opts view.Options) (time.Duration, error) {
	cat, err := fixture.RSTU(fixture.RSTUOptions{Rows: 20000, Seed: 3, WithFK: true})
	if err != nil {
		return 0, err
	}
	def, err := view.Define(cat, "v1", fixture.V1Expr(true), fixture.V1Output(cat))
	if err != nil {
		return 0, err
	}
	m, err := view.NewMaintainer(def, opts)
	if err != nil {
		return 0, err
	}
	if err := m.Materialize(); err != nil {
		return 0, err
	}
	var rows []rel.Row
	for i := 0; i < 200; i++ {
		rows = append(rows, rel.Row{rel.Int(int64(100000 + i)), rel.Int(int64(i % 101)), rel.Int(int64(i % 97))})
	}
	if err := cat.Insert("T", rows); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if _, err := m.OnInsert("T", rows); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}
