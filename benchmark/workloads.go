package main

import (
	"fmt"
	"runtime"
	"time"

	"ojv"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"stmt-sync", "group-commit", "bulk-delta", "multi-view"}

// Seeds: defaultSeed is what a run without -seed uses; holdoutSeed is never
// used while a change is written, so a claim can be re-checked on it.
const (
	defaultSeed = 20070415
	holdoutSeed = 77003
)

// scale sizes a workload. Only two scales exist: the one the benchmark is
// defined at and the toy one the smoke test runs.
type scale struct {
	// sf is the TPC-H scale factor: 0.05 gives ≈300 k lineitems, far above
	// the epoch layer's compaction threshold, and a V3 of ≈31 k rows.
	sf float64
	// syncStatements is the stmt-sync cycle length before its drain.
	syncStatements int
	// flushEvery is the group-commit batch size in statements.
	flushEvery int
	// delta is the bulk-delta statement size in rows: the paper's N = 20 000
	// at SF 1, scaled to the database.
	delta int
	// mvRows and mvInserts size the multi-view tables and its per-table,
	// per-flush statement count.
	mvRows, mvInserts int
}

var (
	fullScale = scale{sf: 0.05, syncStatements: 150, flushEvery: 1000, delta: 1000, mvRows: 2000, mvInserts: 60}
	toyScale  = scale{sf: 0.002, syncStatements: 60, flushEvery: 50, delta: 50, mvRows: 200, mvInserts: 10}
)

// obsOptions is what a set-up threads into Options and BatchOptions: nothing
// on a measured run, a tracer and a registry on the traced run.
type obsOptions struct {
	tracer  *ojv.Tracer
	metrics *ojv.Metrics
	// measureHeap asks the set-up to record the live-heap growth across its
	// CreateView calls (two forced collections, so only the traced run asks).
	measureHeap bool
}

// setup generates the named workload's inputs from the seed, loads them and
// materialises its views.
func setup(name string, seed int64, sc scale, o obsOptions) (*instance, error) {
	switch name {
	case "stmt-sync", "group-commit", "bulk-delta":
		return setupTPCH(name, seed, sc, o)
	case "multi-view":
		return setupMultiView(seed, sc, o)
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %v)", name, workloadNames)
}

// createViews runs create with the set-up's Options, timing it and, when
// asked, measuring the live heap it adds.
func (in *instance) createViews(o obsOptions, create func(opts ojv.Options) error) error {
	var before float64
	if o.measureHeap {
		before = liveHeapBytes()
	}
	t0 := time.Now()
	err := create(ojv.Options{Tracer: o.tracer, Metrics: o.metrics})
	in.createViewNs = time.Since(t0).Nanoseconds()
	if o.measureHeap {
		in.viewHeapBytes = liveHeapBytes() - before
	}
	return err
}

// liveHeapBytes is HeapAlloc after a forced collection.
func liveHeapBytes() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
