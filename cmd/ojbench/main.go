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
//	ojbench -experiment writes -writestmts 10000
//	ojbench -experiment serving -writestmts 10000 -readers 4
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
	"strconv"
	"strings"
	"time"

	"ojv/internal/bench"
	"ojv/internal/fixture"
	"ojv/internal/obs"
	"ojv/internal/rel"
	"ojv/internal/view"
)

func main() {
	experiment := flag.String("experiment", "all", "table1 | fig5a | fig5b | ablations | scaling | writes | serving | all")
	writeStmts := flag.Int("writestmts", 10000, "statements in the -experiment writes/serving stream")
	flushRows := flag.Int("flushrows", 1000, "WriteBatch flush threshold in the -experiment serving run")
	readers := flag.Int("readers", 4, "concurrent snapshot readers in the -experiment serving run")
	groups := flag.Int("groups", 4, "disjoint view groups in the -experiment concurrent-maintenance run")
	mvViews := flag.String("mvviews", "1,16,128", "comma-separated view counts for the -experiment multi-view run")
	mvRounds := flag.Int("mvrounds", 6, "timed flush rounds per point in the -experiment multi-view run")
	maintWorkers := flag.Int("maintworkers", 4, "maintenance workers at the top measured point of -experiment concurrent-maintenance")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor (the paper runs SF=1)")
	seed := flag.Int64("seed", 1, "generator seed")
	reps := flag.Int("reps", 3, "repetitions per measured point (median reported)")
	workers := flag.Int("workers", 0, "maintenance parallelism (0 = GOMAXPROCS, 1 = serial)")
	batchSize := flag.Int("batchsize", 0, "executor pipeline batch size in rows (0 = exec default)")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of every maintenance run to this file")
	metrics := flag.Bool("metrics", false, "print a metrics snapshot (JSON) after the experiments")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while experiments run")
	flag.Parse()
	benchReps = *reps
	benchOpts = view.Options{Parallelism: *workers, BatchSize: *batchSize}
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

	run := func(name string, f func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "ojbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	run("table1", func() error { return table1(*sf, *seed) })
	run("fig5a", func() error { return fig5(*sf, *seed, true) })
	run("fig5b", func() error { return fig5(*sf, *seed, false) })
	run("ablations", func() error { return ablations(*sf, *seed) })
	run("scaling", func() error { return scaling() })
	// The writes experiment measures the group-commit pipeline, not the
	// paper's figures, so it only runs when requested by name.
	if *experiment == "writes" {
		if err := writes(*sf, *seed, *writeStmts); err != nil {
			fmt.Fprintf(os.Stderr, "ojbench: writes: %v\n", err)
			os.Exit(1)
		}
	}
	// The serving experiment measures reader isolation during async flushes;
	// like writes, it only runs when requested by name.
	if *experiment == "serving" {
		if err := serving(*sf, *seed, *writeStmts, *flushRows, *readers); err != nil {
			fmt.Fprintf(os.Stderr, "ojbench: serving: %v\n", err)
			os.Exit(1)
		}
	}
	// The concurrent-maintenance experiment measures component-parallel
	// flush throughput over disjoint view groups; it only runs by name.
	if *experiment == "concurrent-maintenance" {
		if err := concurrentMaintenance(*seed, *groups, *maintWorkers); err != nil {
			fmt.Fprintf(os.Stderr, "ojbench: concurrent-maintenance: %v\n", err)
			os.Exit(1)
		}
	}
	// The multi-view experiment measures the shared ΔV^D plan layer; it only
	// runs by name.
	if *experiment == "multi-view" {
		if err := multiView(*seed, *mvViews, *mvRounds); err != nil {
			fmt.Fprintf(os.Stderr, "ojbench: multi-view: %v\n", err)
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

// benchTracer and benchMetrics are non-nil when -trace / -metrics are set;
// benchOpts carries them into every view the experiments build.
var (
	benchTracer  *obs.Tracer
	benchMetrics *obs.Registry
)

var benchReps = 3

// benchOpts carries the -workers setting into every non-GK experiment.
var benchOpts view.Options

// emitBench prints one machine-readable result line per experiment, tagged
// with the worker setting and GOMAXPROCS so runs on different machines and
// flag combinations can be compared. Durations marshal as nanoseconds.
func emitBench(experiment string, data any) {
	b, err := json.Marshal(map[string]any{
		"experiment": experiment,
		"workers":    benchOpts.Parallelism,
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
		opts := cfg.opts
		opts.Parallelism = benchOpts.Parallelism
		el, err := medianOf(benchReps, func() (time.Duration, error) { return v1Insert(opts) })
		if err != nil {
			return err
		}
		fmt.Printf("  deltatree %-16s T-insert: %s\n", cfg.name, el.Round(10*time.Microsecond))
	}
	fmt.Println()
	return nil
}

// writes measures the write-throughput trajectory of 1-row insert
// statements: the synchronous per-statement path against the group-commit
// pipeline at increasing flush thresholds. Every run's final view state is
// verified bit-identical to the per-statement reference.
func writes(sf float64, seed int64, statements int) error {
	fmt.Printf("== Writes: %d 1-row lineitem inserts against V3, per-statement vs group commit (SF=%g) ==\n", statements, sf)
	results, err := bench.RunWrites(sf, seed, statements, []int{1, 100, 1000, 10000}, benchReps)
	if err != nil {
		return err
	}
	emitBench("writes", results)
	base := results[0].StmtsPerSec
	fmt.Printf("%-14s %10s %14s %12s %12s %12s %12s %9s\n",
		"mode", "batch", "stmts/sec", "speedup", "p50", "p95", "p99", "flushes")
	for _, r := range results {
		fmt.Printf("%-14s %10d %14.0f %11.1fx %12s %12s %12s %9d\n",
			r.Mode, r.BatchSize, r.StmtsPerSec, r.StmtsPerSec/base,
			r.P50.Round(10*time.Nanosecond), r.P95.Round(10*time.Nanosecond),
			r.P99.Round(10*time.Nanosecond), r.Flushes)
	}
	fmt.Println()
	return nil
}

// serving measures snapshot-read latency while the async maintenance
// goroutine group-commits a write stream, against the same readers on the
// idle final view. The final state is verified bit-identical to a
// synchronous twin inside bench.RunServing.
func serving(sf float64, seed int64, statements, flushRows, readers int) error {
	fmt.Printf("== Serving: %d concurrent snapshot readers during %d group-committed lineitem inserts (flush threshold %d, SF=%g) ==\n",
		readers, statements, flushRows, sf)
	r, err := bench.RunServing(sf, seed, statements, flushRows, readers, benchReps)
	if err != nil {
		return err
	}
	emitBench("serving", r)
	fmt.Printf("%-14s %10s %12s %12s %12s\n", "phase", "reads", "p50", "p95", "p99")
	fmt.Printf("%-14s %10d %12s %12s %12s\n", "during-flush", r.FlushReads,
		r.FlushP50.Round(10*time.Nanosecond), r.FlushP95.Round(10*time.Nanosecond), r.FlushP99.Round(10*time.Nanosecond))
	fmt.Printf("%-14s %10d %12s %12s %12s\n", "idle", r.IdleReads,
		r.IdleP50.Round(10*time.Nanosecond), r.IdleP95.Round(10*time.Nanosecond), r.IdleP99.Round(10*time.Nanosecond))
	fmt.Printf("p99 ratio during-flush/idle: %.2fx (target <= 2.0x)\n", r.P99Ratio)
	fmt.Printf("writer: %.0f stmts/sec, %d flushes (p50 %s, max %s), final view rows %d (bit-identical to synchronous twin)\n\n",
		r.StmtsPerSec, r.Flushes, r.FlushDurP50.Round(10*time.Microsecond), r.FlushDurMax.Round(10*time.Microsecond), r.FinalViewRows)
	return nil
}

// concurrentMaintenance measures flush throughput against the component
// worker pool: groups disjoint parent/child view groups stage identical
// statement streams, flushed serialized (MaintWorkers 1: the same pipeline,
// a pool of one) and then through worker pools up to maintWorkers. Final view states are verified
// bit-identical to the serialized reference inside the bench (the
// interleaving-correctness version of the claim is proved by
// internal/oracle RunConcurrentMaintSeed under -race).
func concurrentMaintenance(seed int64, groups, maintWorkers int) error {
	const (
		rounds   = 12
		perRound = 500
		baseRows = 1500
	)
	fmt.Printf("== Concurrent maintenance: %d disjoint view groups, %d flushes of %d child inserts + %d parent updates per group ==\n",
		groups, rounds, perRound, perRound/4)
	workerCounts := []int{2}
	if maintWorkers > 2 {
		workerCounts = append(workerCounts, maintWorkers)
	}
	results, err := bench.RunConcurrentMaintenance(seed, groups, rounds, perRound, baseRows, workerCounts, benchReps)
	if err != nil {
		return err
	}
	emitBench("concurrent-maintenance", results)
	fmt.Printf("%-12s %8s %8s %14s %12s %12s %10s\n",
		"mode", "workers", "groups", "flushes/sec", "speedup", "components", "viewrows")
	for _, r := range results {
		fmt.Printf("%-12s %8d %8d %14.1f %11.2fx %12d %10d\n",
			r.Mode, r.Workers, r.Groups, r.FlushesPerSec, r.Speedup, r.Components, r.FinalViewRows)
	}
	fmt.Println()
	return nil
}

// multiView measures shared-plan maintenance for N views over three base
// tables, per shape (shared-prefix and disjoint). Every point's final view
// states are verified against recomputation inside bench.RunMultiView,
// along with the producer/consumer row identity.
func multiView(seed int64, viewCounts string, rounds int) error {
	var counts []int
	for _, s := range strings.Split(viewCounts, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -mvviews entry %q", s)
		}
		counts = append(counts, n)
	}
	const (
		perRound = 60
		baseRows = 300
	)
	fmt.Printf("== Multi-view: shared ΔV^D plans, %d flushes of %d inserts per table ==\n",
		rounds, perRound)
	results, err := bench.RunMultiView(seed, counts, rounds, perRound, baseRows, benchReps)
	if err != nil {
		return err
	}
	emitBench("multi-view", results)
	fmt.Printf("%-14s %6s %14s %14s %10s %12s\n",
		"shape", "views", "flush-total", "per-view", "subtrees", "rows-saved")
	for _, r := range results {
		fmt.Printf("%-14s %6d %14s %14s %10d %12d\n",
			r.Shape, r.Views,
			r.FlushElapsed.Round(10*time.Microsecond), r.PerViewFlush.Round(time.Microsecond),
			r.SharedSubtrees, r.RowsSaved)
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
		Parallelism:       benchOpts.Parallelism,
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
