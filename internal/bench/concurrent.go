package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ojv"
	"ojv/internal/rel"
)

// The concurrent-maintenance experiment measures flush throughput against
// the component worker pool (BatchOptions.MaintWorkers): G disjoint view
// groups — parent/child table pairs joined by one left-outer view each —
// stage the same statement stream into a shared WriteBatch, and every flush
// is partitioned by the conflict analysis into G independent components.
// The serialized point (MaintWorkers 1) runs the same pipeline with a pool
// of one, the components inline one after another; each concurrent point
// must be bit-identical to it, so the experiment doubles as an end-to-end
// determinism check on top of the interleaving oracle (internal/oracle
// RunConcurrentMaintSeed).

// ConcurrentResult is one point of the concurrent-maintenance experiment.
type ConcurrentResult struct {
	Mode    string // "serialized" (pool of one) or "concurrent"
	Workers int
	Groups  int
	// Rounds flushes were timed; each staged RowsPerGroup child inserts
	// plus RowsPerGroup/4 parent updates per group.
	Rounds       int
	RowsPerGroup int
	// FlushElapsed is the summed wall time of the Flush calls alone —
	// staging is identical serial work in every mode and excluded.
	FlushElapsed  time.Duration
	FlushesPerSec float64
	// Speedup is FlushesPerSec over the serialized point's.
	Speedup float64
	// Components is the total number of independent components committed
	// (groups × rounds when the conflict analysis splits perfectly), at
	// every worker count.
	Components int64
	// FinalViewRows sums the group views' cardinalities, identical across
	// modes by construction (and verified by fingerprint).
	FinalViewRows int
}

// newConcurrentBenchDB builds groups disjoint parent/child pairs, each
// loaded with baseRows committed rows per table and covered by a
// parent-LEFT-JOIN-child view. Per-view Parallelism is pinned to 1 so
// intra-view executor parallelism cannot mask (or fake) component-level
// concurrency.
func newConcurrentBenchDB(seed int64, groups, baseRows int) (*ojv.Database, []*ojv.View, error) {
	rng := rand.New(rand.NewSource(seed))
	db := ojv.NewDatabase()
	views := make([]*ojv.View, groups)
	for g := 0; g < groups; g++ {
		p := fmt.Sprintf("p%d", g)
		c := fmt.Sprintf("c%d", g)
		if err := db.CreateTable(p, []rel.Column{
			{Name: p + "k", Kind: rel.KindInt},
			{Name: p + "j", Kind: rel.KindInt},
			{Name: p + "v", Kind: rel.KindInt},
		}, p+"k"); err != nil {
			return nil, nil, err
		}
		if err := db.CreateTable(c, []rel.Column{
			{Name: c + "k", Kind: rel.KindInt},
			{Name: c + "f", Kind: rel.KindInt, NotNull: true},
			{Name: c + "v", Kind: rel.KindInt},
		}, c+"k"); err != nil {
			return nil, nil, err
		}
		if err := db.AddForeignKey(c, []string{c + "f"}, p, []string{p + "k"}); err != nil {
			return nil, nil, err
		}
		parents := make([]rel.Row, baseRows)
		for i := range parents {
			parents[i] = rel.Row{rel.Int(int64(i)), rel.Int(rng.Int63n(7)), rel.Int(rng.Int63n(100))}
		}
		if err := db.Insert(p, parents); err != nil {
			return nil, nil, err
		}
		children := make([]rel.Row, baseRows)
		for i := range children {
			children[i] = rel.Row{
				rel.Int(int64(i)), rel.Int(rng.Int63n(int64(baseRows))), rel.Int(rng.Int63n(100))}
		}
		if err := db.Insert(c, children); err != nil {
			return nil, nil, err
		}
		v, err := db.CreateView(fmt.Sprintf("v%d", g),
			ojv.Table(p).LeftJoin(ojv.Table(c), ojv.Eq(c, c+"f", p, p+"k")),
			ojv.Columns(p+"."+p+"k", p+"."+p+"j", p+"."+p+"v", c+"."+c+"k", c+"."+c+"f", c+"."+c+"v"),
			ojv.Options{Parallelism: 1})
		if err != nil {
			return nil, nil, err
		}
		views[g] = v
	}
	return db, views, nil
}

// stageConcurrentRound stages round r's statements for one group:
// perRound fresh child inserts referencing random existing parents, then
// perRound/4 parent updates (the heavy op: each probes the child FK index
// during maintenance). Key arithmetic keeps every statement valid and the
// stream deterministic per (seed, group), so every mode replays the same
// bytes.
func stageConcurrentRound(wb *ojv.WriteBatch, seed int64, g, r, perRound, baseRows int) error {
	rng := rand.New(rand.NewSource(seed ^ int64(g)<<24 ^ int64(r)<<8 ^ 0xbe9c))
	p := fmt.Sprintf("p%d", g)
	c := fmt.Sprintf("c%d", g)
	children := make([]rel.Row, perRound)
	for i := range children {
		key := int64(baseRows + r*perRound + i)
		children[i] = rel.Row{
			rel.Int(key), rel.Int(rng.Int63n(int64(baseRows))), rel.Int(rng.Int63n(100))}
	}
	if err := wb.Insert(c, children); err != nil {
		return err
	}
	for i := 0; i < perRound/4; i++ {
		key := rng.Int63n(int64(baseRows))
		row := rel.Row{rel.Int(key), rel.Int(rng.Int63n(7)), rel.Int(rng.Int63n(100))}
		if err := wb.Update(p, []rel.Value{rel.Int(key)}, row); err != nil {
			return err
		}
	}
	return nil
}

// concurrentFingerprint joins the sorted row renderings of every group
// view, for cross-mode identity checks.
func concurrentFingerprint(views []*ojv.View) string {
	parts := make([]string, len(views))
	for i, v := range views {
		parts[i] = viewFingerprint(v)
	}
	return strings.Join(parts, "\n====\n")
}

// RunConcurrentMaintenance measures flush throughput for the serialized
// reference and each worker count in workerCounts, reps times each (median
// by flush elapsed). Every run's final state must be bit-identical to the
// serialized reference's and every view must pass its maintenance oracle.
func RunConcurrentMaintenance(seed int64, groups, rounds, perRound, baseRows int, workerCounts []int, reps int) ([]ConcurrentResult, error) {
	if reps < 1 {
		reps = 1
	}

	oneRun := func(workers int) (ConcurrentResult, string, error) {
		db, views, err := newConcurrentBenchDB(seed, groups, baseRows)
		if err != nil {
			return ConcurrentResult{}, "", err
		}
		m := ojv.NewMetrics()
		wb := db.NewWriteBatch(ojv.BatchOptions{MaintWorkers: workers, Metrics: m})
		var flushTime time.Duration
		for r := 0; r < rounds; r++ {
			for g := 0; g < groups; g++ {
				if err := stageConcurrentRound(wb, seed, g, r, perRound, baseRows); err != nil {
					return ConcurrentResult{}, "", err
				}
			}
			t0 := time.Now()
			if err := wb.Flush(); err != nil {
				return ConcurrentResult{}, "", err
			}
			flushTime += time.Since(t0)
		}
		if err := wb.Close(); err != nil {
			return ConcurrentResult{}, "", err
		}
		rowsTotal := 0
		for _, v := range views {
			if err := v.Check(); err != nil {
				return ConcurrentResult{}, "", err
			}
			rowsTotal += v.Len()
		}
		mode := "concurrent"
		if workers <= 1 {
			mode = "serialized"
		}
		return ConcurrentResult{
			Mode:          mode,
			Workers:       workers,
			Groups:        groups,
			Rounds:        rounds,
			RowsPerGroup:  perRound,
			FlushElapsed:  flushTime,
			FlushesPerSec: float64(rounds) / flushTime.Seconds(),
			Components:    m.Histogram("view.flush.components").Sum(),
			FinalViewRows: rowsTotal,
		}, concurrentFingerprint(views), nil
	}

	medianRun := func(workers int) (ConcurrentResult, string, error) {
		rs := make([]ConcurrentResult, reps)
		fps := make([]string, reps)
		for i := range rs {
			r, fp, err := oneRun(workers)
			if err != nil {
				return ConcurrentResult{}, "", err
			}
			rs[i], fps[i] = r, fp
		}
		idx := make([]int, reps)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return rs[idx[i]].FlushElapsed < rs[idx[j]].FlushElapsed })
		mid := idx[len(idx)/2]
		return rs[mid], fps[mid], nil
	}

	// Warmup: one untimed serialized pass on a scratch fixture, so the
	// first measured point doesn't pay the process's heap growth.
	if _, _, err := oneRun(1); err != nil {
		return nil, err
	}

	ref, wantFP, err := medianRun(1)
	if err != nil {
		return nil, err
	}
	ref.Speedup = 1
	results := []ConcurrentResult{ref}
	for _, w := range workerCounts {
		r, fp, err := medianRun(w)
		if err != nil {
			return nil, err
		}
		if fp != wantFP {
			return nil, fmt.Errorf("bench: %d workers: final view state differs from serialized reference", w)
		}
		if r.FinalViewRows != ref.FinalViewRows {
			return nil, fmt.Errorf("bench: %d workers: view rows %d != reference %d", w, r.FinalViewRows, ref.FinalViewRows)
		}
		r.Speedup = r.FlushesPerSec / ref.FlushesPerSec
		results = append(results, r)
	}
	return results, nil
}
