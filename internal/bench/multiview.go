package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ojv"
	"ojv/internal/algebra"
	"ojv/internal/rel"
)

// The multi-view experiment measures the shared ΔV^D plan layer: N views
// over the same three base tables flushed through one WriteBatch. Shape
// "shared-prefix" gives every view a private selection on table a only, so
// for updates to b and c the Δ subtrees below the differing node are
// structurally identical across all N views — one evaluation fans out N
// ways. Shape "disjoint" puts a distinct selection on every leaf, so no
// subtree is shared and the measurement is the sharing layer's overhead
// when it has nothing to share. Every point's final view states are
// verified against recomputation from the base tables (View.Check) along
// with the producer/consumer row identity.

// MultiViewResult is one (shape, views) point.
type MultiViewResult struct {
	Shape string // "shared-prefix" or "disjoint"
	Views int
	// Rounds flushes were timed; each staged PerRound inserts into each of
	// the three base tables.
	Rounds   int
	PerRound int
	// FlushElapsed is the summed wall time of the Flush calls alone.
	FlushElapsed time.Duration
	// PerViewFlush is FlushElapsed normalized per view per flush — the
	// marginal cost of keeping one more view fresh.
	PerViewFlush time.Duration
	// SharedSubtrees and RowsSaved come from the flush metrics: DAG nodes
	// built and Σ producer rows that extra consumers did not re-evaluate.
	SharedSubtrees int64
	RowsSaved      int64
}

// multiViewTables is the fixed three-table pool every view joins.
var multiViewTables = []string{"a", "b", "c"}

// newMultiViewBenchDB builds the three base tables loaded with baseRows
// rows each and registers nViews views of the given shape. Per-view
// Parallelism is pinned to 1 so executor parallelism cannot mask the
// sharing effect.
func newMultiViewBenchDB(seed int64, nViews int, shape string, baseRows int) (*ojv.Database, []*ojv.View, error) {
	rng := rand.New(rand.NewSource(seed))
	db := ojv.NewDatabase()
	for _, t := range multiViewTables {
		if err := db.CreateTable(t, []rel.Column{
			{Name: t + "k", Kind: rel.KindInt},
			{Name: t + "j", Kind: rel.KindInt},
			{Name: t + "v", Kind: rel.KindInt},
		}, t+"k"); err != nil {
			return nil, nil, err
		}
		rows := make([]rel.Row, baseRows)
		for i := range rows {
			// Join attrs span the table size: joins hit a handful of partners
			// instead of going quadratic on a tiny domain.
			rows[i] = rel.Row{rel.Int(int64(i)), rel.Int(rng.Int63n(int64(baseRows))), rel.Int(rng.Int63n(100))}
		}
		if err := db.Insert(t, rows); err != nil {
			return nil, nil, err
		}
	}
	leaf := func(t string, i int, private bool) ojv.Rel {
		r := ojv.Table(t)
		if private {
			// Distinct constant per view: the selection makes this leaf's
			// subtree structurally unique to view i (constants above the
			// 0..99 value domain still differ structurally, which is all
			// that matters here).
			r = r.Where(ojv.Cmp(t, t+"v", algebra.OpLt, ojv.Int(int64(50+i))))
		}
		return r
	}
	views := make([]*ojv.View, nViews)
	for i := 0; i < nViews; i++ {
		private := shape == "disjoint"
		expr := leaf("a", i, true).LeftJoin(
			leaf("b", i, private).FullJoin(leaf("c", i, private),
				ojv.Eq("b", "bj", "c", "cj")),
			ojv.Eq("a", "aj", "b", "bj"))
		v, err := db.CreateView(fmt.Sprintf("mv%d", i), expr,
			ojv.Columns("a.ak", "a.aj", "a.av", "b.bk", "b.bj", "b.bv", "c.ck", "c.cj", "c.cv"),
			ojv.Options{Parallelism: 1})
		if err != nil {
			return nil, nil, err
		}
		views[i] = v
	}
	return db, views, nil
}

// stageMultiViewRound stages round r's inserts: perRound fresh-keyed rows
// into each base table, deterministic per (seed, round) so both modes
// replay the same bytes.
func stageMultiViewRound(wb *ojv.WriteBatch, seed int64, r, perRound, baseRows int) error {
	rng := rand.New(rand.NewSource(seed ^ int64(r)<<16 ^ 0x3ee5))
	for _, t := range multiViewTables {
		rows := make([]rel.Row, perRound)
		for i := range rows {
			key := int64(baseRows + r*perRound + i)
			rows[i] = rel.Row{rel.Int(key), rel.Int(rng.Int63n(int64(baseRows))), rel.Int(rng.Int63n(100))}
		}
		if err := wb.Insert(t, rows); err != nil {
			return err
		}
	}
	return nil
}

// RunMultiView measures every (shape, view count) point, reps times each
// (median by flush elapsed), checking every view of every run against
// recomputation from the base tables.
func RunMultiView(seed int64, viewCounts []int, rounds, perRound, baseRows, reps int) ([]MultiViewResult, error) {
	if reps < 1 {
		reps = 1
	}

	oneRun := func(shape string, nViews int) (MultiViewResult, error) {
		db, views, err := newMultiViewBenchDB(seed, nViews, shape, baseRows)
		if err != nil {
			return MultiViewResult{}, err
		}
		m := ojv.NewMetrics()
		wb := db.NewWriteBatch(ojv.BatchOptions{Metrics: m})
		var flushTime time.Duration
		for r := 0; r < rounds; r++ {
			if err := stageMultiViewRound(wb, seed, r, perRound, baseRows); err != nil {
				return MultiViewResult{}, err
			}
			t0 := time.Now()
			if err := wb.Flush(); err != nil {
				return MultiViewResult{}, err
			}
			flushTime += time.Since(t0)
		}
		if err := wb.Close(); err != nil {
			return MultiViewResult{}, err
		}
		for _, v := range views {
			if err := v.Check(); err != nil {
				return MultiViewResult{}, fmt.Errorf("bench: %s/%d views: %w", shape, nViews, err)
			}
		}
		snap := m.Snapshot()
		if produced, saved := snap["view.shared.rows.producer"], snap["view.shared.rows.saved"]; snap["view.shared.rows.consumer"] != produced+saved {
			return MultiViewResult{}, fmt.Errorf("bench: shared row identity broken (consumer %d != producer %d + saved %d)",
				snap["view.shared.rows.consumer"], produced, saved)
		}
		return MultiViewResult{
			Shape:          shape,
			Views:          nViews,
			Rounds:         rounds,
			PerRound:       perRound,
			FlushElapsed:   flushTime,
			PerViewFlush:   flushTime / time.Duration(nViews*rounds),
			SharedSubtrees: snap["view.shared.subtrees"],
			RowsSaved:      snap["view.shared.rows.saved"],
		}, nil
	}

	// Warmup: one untimed pass so the first measured point doesn't pay the
	// process's heap growth.
	if _, err := oneRun("shared-prefix", 2); err != nil {
		return nil, err
	}

	var results []MultiViewResult
	for _, shape := range []string{"shared-prefix", "disjoint"} {
		for _, n := range viewCounts {
			rs := make([]MultiViewResult, reps)
			for i := range rs {
				r, err := oneRun(shape, n)
				if err != nil {
					return nil, err
				}
				rs[i] = r
			}
			sort.Slice(rs, func(i, j int) bool { return rs[i].FlushElapsed < rs[j].FlushElapsed })
			r := rs[len(rs)/2]
			if shape == "shared-prefix" && n > 1 && r.SharedSubtrees == 0 {
				return nil, fmt.Errorf("bench: %s/%d views: no shared subtrees were built", shape, n)
			}
			if shape == "disjoint" && r.RowsSaved != 0 {
				return nil, fmt.Errorf("bench: %s/%d views: disjoint shapes saved %d rows", shape, n, r.RowsSaved)
			}
			results = append(results, r)
		}
	}
	return results, nil
}
