// Package bench contains the experiment harness that regenerates every
// table and figure of the paper's evaluation (Section 7), plus the ablation
// experiments for the design choices called out in DESIGN.md.
//
// All experiments run against the scaled TPC-H generator; batch sizes scale
// with the scale factor so the workload keeps the paper's proportions
// (60 / 600 / 6,000 / 60,000 lineitems at SF=1).
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"ojv/internal/gk"
	"ojv/internal/rel"
	"ojv/internal/tpch"
	"ojv/internal/view"
)

// Method identifies a maintenance algorithm under test in Figure 5.
type Method string

// The three curves of Figure 5, plus the from-base variant of this
// implementation (used by ablations).
const (
	MethodCore    Method = "core-view"       // inner-join view, same algorithm
	MethodOJV     Method = "outer-join-view" // the paper's algorithm
	MethodOJVBase Method = "ojv-from-base"   // secondary delta from base tables
	MethodGK      Method = "gk"              // Griffin–Kumar baseline
)

// Fig5Methods are the methods the paper plots.
var Fig5Methods = []Method{MethodCore, MethodOJV, MethodGK}

// PaperNs are the paper's lineitem batch sizes at SF=1.
var PaperNs = []int{60, 600, 6000, 60000}

// ScaleN scales a paper batch size by the scale factor (minimum 1).
func ScaleN(n int, sf float64) int {
	s := int(float64(n) * sf)
	if s < 1 {
		s = 1
	}
	return s
}

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Term        string
	Cardinality int
	Affected    int
}

// Table1Paper reproduces the numbers the paper reports for reference
// printing.
var Table1Paper = []Table1Row{
	{"COLP", 5208168, 4863},
	{"COL", 131702, 128},
	{"C", 184224, 323},
	{"P", 789131, 346},
}

// Table1 materializes V3, records the per-term cardinalities, inserts a
// scaled batch of lineitem rows and records how many rows of each term the
// insertion affected.
func Table1(sf float64, seed int64) ([]Table1Row, error) {
	return Table1Opts(sf, seed, view.Options{})
}

// Table1Opts is Table1 with explicit maintenance options.
func Table1Opts(sf float64, seed int64, opts view.Options) ([]Table1Row, error) {
	db, err := tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: seed})
	if err != nil {
		return nil, err
	}
	// The paper's insertion workload: load the database without the batch,
	// then insert it during maintenance.
	batch, err := db.HoldOutLineitems(ScaleN(60000, sf))
	if err != nil {
		return nil, err
	}
	def, err := view.Define(db.Catalog, "V3", tpch.V3Expr(), tpch.V3Output())
	if err != nil {
		return nil, err
	}
	m, err := view.NewMaintainer(def, opts)
	if err != nil {
		return nil, err
	}
	if err := m.Materialize(); err != nil {
		return nil, err
	}
	mv := m.Materialized()
	terms := []struct {
		label  string
		tables []string
	}{
		{"COLP", []string{"customer", "lineitem", "orders", "part"}},
		{"COL", []string{"customer", "lineitem", "orders"}},
		{"C", []string{"customer"}},
		{"P", []string{"part"}},
	}
	rows := make([]Table1Row, len(terms))
	for i, tm := range terms {
		rows[i] = Table1Row{Term: tm.label, Cardinality: mv.TermCardinality(tm.tables)}
	}
	// Insert the scaled equivalent of the paper's 60,000-row batch.
	if err := db.Catalog.Insert("lineitem", batch); err != nil {
		return nil, err
	}
	stats, err := m.OnInsert("lineitem", batch)
	if err != nil {
		return nil, err
	}
	// Affected rows per term: COLP and COL from the primary delta split by
	// pattern, C and P from the secondary delta.
	for i, tm := range terms {
		switch tm.label {
		case "COLP", "COL":
			rows[i].Affected = mv.TermCardinality(tm.tables) - rows[i].Cardinality
		default:
			rows[i].Affected = stats.SecondaryByTerm[joinTables(tm.tables)]
		}
	}
	return rows, nil
}

func joinTables(tables []string) string {
	out := ""
	for i, t := range tables {
		if i > 0 {
			out += ","
		}
		out += t
	}
	return out
}

// Fig5Result is one measured point of Figure 5.
type Fig5Result struct {
	Method        Method
	N             int // scaled batch size
	PaperN        int // the paper's batch size this point corresponds to
	Elapsed       time.Duration
	PrimaryRows   int
	SecondaryRows int
	// Commits counts maintenance runs that committed a changeset (always 0
	// for the GK baseline, which has no changeset layer), and UndoRecords
	// the undo-log entries those runs accumulated before committing.
	Commits     int
	UndoRecords int
	// Allocs and AllocBytes are the heap allocations (count and bytes) the
	// maintenance run performed, from runtime.MemStats deltas around the
	// timed section. HeapAlloc is the live heap sampled immediately after
	// the run — with the default GC pacing this tracks the run's working
	// set, though it is not a true high-water mark.
	Allocs     uint64
	AllocBytes uint64
	HeapAlloc  uint64
}

// memBefore/memAfter bracket a maintenance run with MemStats reads and fold
// the allocation deltas into the result.
func memBefore() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func (r *Fig5Result) memAfter(before runtime.MemStats) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Allocs = ms.Mallocs - before.Mallocs
	r.AllocBytes = ms.TotalAlloc - before.TotalAlloc
	r.HeapAlloc = ms.HeapAlloc
}

// maintainable abstracts the systems under test. Implementations return the
// run's maintenance statistics; baselines without a changeset layer
// fabricate row counts and leave Committed false.
type maintainable interface {
	OnInsertRows(table string, rows []rel.Row) (*view.MaintStats, error)
	OnDeleteRows(table string, rows []rel.Row) (*view.MaintStats, error)
}

type ourView struct{ m *view.Maintainer }

func (v ourView) OnInsertRows(table string, rows []rel.Row) (*view.MaintStats, error) {
	return v.m.OnInsert(table, rows)
}

func (v ourView) OnDeleteRows(table string, rows []rel.Row) (*view.MaintStats, error) {
	return v.m.OnDelete(table, rows)
}

type gkView struct{ v *gk.View }

func (g gkView) OnInsertRows(table string, rows []rel.Row) (*view.MaintStats, error) {
	before := g.v.Len()
	if err := g.v.OnInsert(table, rows); err != nil {
		return nil, err
	}
	return &view.MaintStats{PrimaryRows: g.v.Len() - before}, nil
}

func (g gkView) OnDeleteRows(table string, rows []rel.Row) (*view.MaintStats, error) {
	before := g.v.Len()
	if err := g.v.OnDelete(table, rows); err != nil {
		return nil, err
	}
	return &view.MaintStats{PrimaryRows: before - g.v.Len()}, nil
}

// Setup holds a generated database with one maintained view, ready for a
// timed maintenance run.
type Setup struct {
	DB     *tpch.DB
	Target maintainable
	// heldOut carries rows removed before materialization, to be inserted
	// by RunInsert.
	heldOut []rel.Row
}

// NewSetup generates a TPC-H database and materializes V3 (or the core
// view) under the given method. holdOut rows are removed from lineitem
// before materialization and re-inserted by RunInsert, reproducing the
// paper's insertion workload.
func NewSetup(sf float64, seed int64, method Method, holdOut int) (*Setup, error) {
	return NewSetupWith(sf, seed, method, holdOut, view.Options{})
}

// NewSetupWith is NewSetup with explicit base maintenance options (e.g. a
// BatchSize, Tracer or Metrics); the method still controls the view shape
// and forces its own Strategy. The GK baseline ignores the options.
func NewSetupWith(sf float64, seed int64, method Method, holdOut int, base view.Options) (*Setup, error) {
	db, err := tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: seed})
	if err != nil {
		return nil, err
	}
	s := &Setup{DB: db}
	if holdOut > 0 {
		s.heldOut, err = db.HoldOutLineitems(holdOut)
		if err != nil {
			return nil, err
		}
	}
	switch method {
	case MethodGK:
		v, err := gk.New(db.Catalog, "V3gk", tpch.V3Expr(), tpch.V3Output())
		if err != nil {
			return nil, err
		}
		if err := v.Materialize(); err != nil {
			return nil, err
		}
		s.Target = gkView{v}
	default:
		expr := tpch.V3Expr()
		opts := base
		opts.Strategy = view.StrategyAuto
		if method == MethodCore {
			expr = tpch.V3CoreExpr()
		}
		if method == MethodOJVBase {
			opts.Strategy = view.StrategyFromBase
		}
		def, err := view.Define(db.Catalog, "V3_"+string(method), expr, tpch.V3Output())
		if err != nil {
			return nil, err
		}
		m, err := view.NewMaintainer(def, opts)
		if err != nil {
			return nil, err
		}
		if err := m.Materialize(); err != nil {
			return nil, err
		}
		s.Target = ourView{m}
	}
	return s, nil
}

// TakeHeldOut returns the held-out rows (and clears them); benchmark
// drivers use the same batch for repeated insert/delete cycles.
func (s *Setup) TakeHeldOut() []rel.Row {
	out := s.heldOut
	s.heldOut = nil
	return out
}

// InsertBatch applies a prepared batch to the catalog and maintains the
// view; the returned duration covers maintenance only.
func (s *Setup) InsertBatch(rows []rel.Row) (time.Duration, error) {
	if err := s.DB.Catalog.Insert("lineitem", rows); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if _, err := s.Target.OnInsertRows("lineitem", rows); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// DeleteBatch removes a prepared batch from the catalog and maintains the
// view; the returned duration covers maintenance only.
func (s *Setup) DeleteBatch(rows []rel.Row) (time.Duration, error) {
	t := s.DB.Catalog.Table("lineitem")
	keys := make([][]rel.Value, len(rows))
	for i, r := range rows {
		keys[i] = r.Project(t.KeyCols())
	}
	deleted, err := s.DB.Catalog.Delete("lineitem", keys)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if _, err := s.Target.OnDeleteRows("lineitem", deleted); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// NewSetupOpts builds a V3 setup with explicit maintenance options (for
// ablation experiments).
func NewSetupOpts(sf float64, seed int64, opts view.Options) (*Setup, error) {
	db, err := tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: seed})
	if err != nil {
		return nil, err
	}
	def, err := view.Define(db.Catalog, "V3", tpch.V3Expr(), tpch.V3Output())
	if err != nil {
		return nil, err
	}
	m, err := view.NewMaintainer(def, opts)
	if err != nil {
		return nil, err
	}
	if err := m.Materialize(); err != nil {
		return nil, err
	}
	return &Setup{DB: db, Target: ourView{m}}, nil
}

// RunInsert applies an N-row lineitem insertion and times the maintenance
// step only (the base-table insert itself costs the same for every method).
// Held-out rows are used first; any remainder is freshly fabricated.
func (s *Setup) RunInsert(n int) (Fig5Result, error) {
	var rows []rel.Row
	if len(s.heldOut) >= n {
		rows, s.heldOut = s.heldOut[:n], s.heldOut[n:]
	} else {
		rows = append(rows, s.heldOut...)
		s.heldOut = nil
		rows = append(rows, s.DB.NewLineitems(n-len(rows))...)
	}
	if err := s.DB.Catalog.Insert("lineitem", rows); err != nil {
		return Fig5Result{}, err
	}
	ms := memBefore()
	t0 := time.Now()
	st, err := s.Target.OnInsertRows("lineitem", rows)
	if err != nil {
		return Fig5Result{}, err
	}
	r := fig5Point(n, time.Since(t0), st)
	r.memAfter(ms)
	return r, nil
}

// fig5Point folds one maintenance run's stats into a Figure 5 point.
func fig5Point(n int, elapsed time.Duration, st *view.MaintStats) Fig5Result {
	r := Fig5Result{N: n, Elapsed: elapsed, PrimaryRows: st.PrimaryRows, SecondaryRows: st.SecondaryRows, UndoRecords: st.UndoRecords}
	if st.Committed {
		r.Commits = 1
	}
	return r
}

// RunDelete applies an N-row lineitem deletion and times the maintenance
// step only.
func (s *Setup) RunDelete(n int) (Fig5Result, error) {
	keys := s.DB.SampleLineitemKeys(n)
	deleted, err := s.DB.Catalog.Delete("lineitem", keys)
	if err != nil {
		return Fig5Result{}, err
	}
	ms := memBefore()
	t0 := time.Now()
	st, err := s.Target.OnDeleteRows("lineitem", deleted)
	if err != nil {
		return Fig5Result{}, err
	}
	r := fig5Point(n, time.Since(t0), st)
	r.memAfter(ms)
	return r, nil
}

// RunFig5 measures one curve set of Figure 5 ((a) insertions or (b)
// deletions): for each paper batch size and method, fresh databases are
// generated and the maintenance run is timed; the median of reps runs is
// reported (single-shot timings at microsecond scale are dominated by GC
// and cache warm-up noise).
func RunFig5(sf float64, seed int64, insert bool, methods []Method, reps int, out io.Writer) ([]Fig5Result, error) {
	return RunFig5Opts(sf, seed, insert, methods, reps, view.Options{}, out)
}

// RunFig5Opts is RunFig5 with explicit base maintenance options applied to
// every non-GK method.
func RunFig5Opts(sf float64, seed int64, insert bool, methods []Method, reps int, base view.Options, out io.Writer) ([]Fig5Result, error) {
	if reps < 1 {
		reps = 1
	}
	var results []Fig5Result
	for _, paperN := range PaperNs {
		n := ScaleN(paperN, sf)
		for _, method := range methods {
			var r Fig5Result
			var times []time.Duration
			var allocs, allocBytes []uint64
			for rep := 0; rep < reps; rep++ {
				holdOut := 0
				if insert {
					holdOut = n
				}
				s, err := NewSetupWith(sf, seed, method, holdOut, base)
				if err != nil {
					return nil, err
				}
				if insert {
					r, err = s.RunInsert(n)
				} else {
					r, err = s.RunDelete(n)
				}
				if err != nil {
					return nil, fmt.Errorf("%s n=%d: %w", method, n, err)
				}
				times = append(times, r.Elapsed)
				allocs = append(allocs, r.Allocs)
				allocBytes = append(allocBytes, r.AllocBytes)
			}
			r.Elapsed = median(times)
			r.Allocs = medianU64(allocs)
			r.AllocBytes = medianU64(allocBytes)
			r.Method = method
			r.PaperN = paperN
			results = append(results, r)
			if out != nil {
				fmt.Fprintf(out, "  %-16s paperN=%-6d n=%-6d elapsed=%-12s primary=%-6d secondary=%-6d commits=%d undo=%d allocs=%d alloc_bytes=%d\n",
					r.Method, r.PaperN, r.N, r.Elapsed.Round(time.Microsecond), r.PrimaryRows, r.SecondaryRows, r.Commits, r.UndoRecords, r.Allocs, r.AllocBytes)
			}
		}
	}
	return results, nil
}

// median returns the middle element of the (sorted) durations.
func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// medianU64 returns the middle element of the (sorted) counts.
func medianU64(xs []uint64) uint64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[len(xs)/2]
}
