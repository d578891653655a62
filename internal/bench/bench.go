// Package bench is the one harness for the paper's evaluation (Section 7)
// and the ablations of DESIGN.md §4. Every experiment is a list of Points:
// NewSetup builds a point's database and view and draws its batch,
// Setup.Run times one maintenance run, and Run reports each point's median
// over fresh setups. cmd/ojbench prints the results; the Go benchmarks in
// the module root repeat Setup.Run under b.N.
//
// All experiments run against the scaled TPC-H generator; batch sizes scale
// with the scale factor so the workload keeps the paper's proportions
// (60 / 600 / 6,000 / 60,000 lineitems at SF=1).
package bench

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"ojv/internal/fixture"
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
	return max(int(float64(n)*sf), 1)
}

// Batch is what a point's timed run applies to its view's base tables.
type Batch string

const (
	// LineitemInsert inserts lineitems held out of the database before the
	// view was materialized (Figure 5(a), Table 1, scaling).
	LineitemInsert Batch = "lineitem-insert"
	// LineitemDelete deletes lineitems from the full database (Figure 5(b)).
	LineitemDelete Batch = "lineitem-delete"
	// CustomerInsert inserts new customers (the Theorem 3 ablation).
	CustomerInsert Batch = "customer-insert"
	// V1Insert inserts new T rows under the abstract view V1 of Example 2,
	// whose bushy ΔV^D tree joins two base tables (the ΔV^D-tree ablations).
	// The fixture is fixed: SF and Seed do not apply.
	V1Insert Batch = "v1-insert"
)

// Point is one measured point: a database, one view maintained by Method
// (V3, or V1 under V1Insert) and an N-row batch.
type Point struct {
	// Label names the point within its experiment, e.g. "gk/N=600" or
	// "theorem3/off".
	Label  string
	Method Method
	Batch  Batch
	N      int
	// PaperN is the paper's batch size a Figure 5 point scales.
	PaperN int `json:",omitempty"`
	SF     float64
	Seed   int64
	// Opts are the view's maintenance options; MethodOJVBase overrides the
	// Strategy, and the GK baseline ignores them.
	Opts view.Options `json:"-"`
}

// Fig5Result is one timed maintenance run of a point; Run reports the
// median of several.
type Fig5Result struct {
	Point
	Elapsed time.Duration
	// MaintStats is the run's statistics. The GK baseline has no changeset
	// layer: it reports only PrimaryRows, the net change of its row count,
	// and leaves Committed false.
	view.MaintStats
	// Allocs and AllocBytes are the heap allocations (count and bytes) the
	// maintenance run performed, from runtime.MemStats deltas around the
	// timed section. HeapAlloc is the live heap sampled immediately after
	// the run — with the default GC pacing this tracks the run's working
	// set, though it is not a true high-water mark.
	Allocs     uint64
	AllocBytes uint64
	HeapAlloc  uint64
}

// maintainable is a system under test: *view.Maintainer or the GK
// baseline.
type maintainable interface {
	OnInsert(table string, rows []rel.Row) (*view.MaintStats, error)
	OnDelete(table string, rows []rel.Row) (*view.MaintStats, error)
}

type gkView struct{ v *gk.View }

func (g gkView) OnInsert(table string, rows []rel.Row) (*view.MaintStats, error) {
	before := g.v.Len()
	err := g.v.OnInsert(table, rows)
	return &view.MaintStats{PrimaryRows: g.v.Len() - before}, err
}

func (g gkView) OnDelete(table string, rows []rel.Row) (*view.MaintStats, error) {
	before := g.v.Len()
	err := g.v.OnDelete(table, rows)
	return &view.MaintStats{PrimaryRows: before - g.v.Len()}, err
}

// Setup is a point ready to run: its database, the view materialized
// over it, and the drawn batch.
type Setup struct {
	Point
	cat *rel.Catalog
	// m maintains the view; nil under MethodGK.
	m      *view.Maintainer
	target maintainable
	table  string
	rows   []rel.Row
}

// NewSetup generates the point's database, draws its batch and
// materializes its view. The database and the batch depend only on SF,
// Seed, Batch and N, so every method at a point maintains the same batch.
func NewSetup(p Point) (*Setup, error) {
	s := &Setup{Point: p, table: "lineitem"}
	name, expr, out := "V3", tpch.V3Expr(), tpch.V3Output()
	if p.Method == MethodCore {
		expr = tpch.V3CoreExpr()
	}
	if p.Batch == V1Insert {
		cat, err := fixture.RSTU(fixture.RSTUOptions{Rows: 20000, Seed: 3, WithFK: true})
		if err != nil {
			return nil, err
		}
		s.cat, s.table = cat, "T"
		name, expr, out = "V1", fixture.V1Expr(true), fixture.V1Output(cat)
		for i := 0; i < p.N; i++ {
			s.rows = append(s.rows, rel.Row{rel.Int(int64(100000 + i)), rel.Int(int64(i % 101)), rel.Int(int64(i % 97))})
		}
	} else {
		db, err := tpch.Generate(tpch.Config{ScaleFactor: p.SF, Seed: p.Seed})
		if err != nil {
			return nil, err
		}
		s.cat = db.Catalog
		if p.Batch == CustomerInsert {
			s.table, s.rows = "customer", db.NewCustomers(p.N)
		} else if s.rows, err = drawLineitems(db, p.N, p.Batch == LineitemInsert); err != nil {
			return nil, err
		}
	}
	if p.Method == MethodGK {
		v, err := gk.New(s.cat, name, expr, out)
		if err != nil {
			return nil, err
		}
		s.target = gkView{v}
		return s, v.Materialize()
	}
	opts := p.Opts
	if p.Method == MethodOJVBase {
		opts.Strategy = view.StrategyFromBase
	}
	def, err := view.Define(s.cat, name, expr, out)
	if err != nil {
		return nil, err
	}
	if s.m, err = view.NewMaintainer(def, opts); err != nil {
		return nil, err
	}
	s.target = s.m
	return s, s.m.Materialize()
}

// drawLineitems draws an n-row lineitem batch the way the TPC-H refresh
// streams do — whole orders, uniformly (tpch.SampleLineitemKeys) — and
// redraws until the batch holds a line of V3's core view: a lineitem of an
// order in V3's date window, on a part under its price cap. Without the
// redraw a scaled-down batch is mostly empty for V3: the window holds ≈ 9%
// of orders, and at SF 0.01 the paper's N = 60, 600 and 6 000 scale to 1,
// 6 and 60 lines. Held-out batches (holdOut) leave the database before
// the view is materialized; the others are read from it.
func drawLineitems(db *tpch.DB, n int, holdOut bool) ([]rel.Row, error) {
	li, orders, part := db.Catalog.Table("lineitem"), db.Catalog.Table("orders"), db.Catalog.Table("part")
	lo, hi := tpch.V3DateLo.AsInt(), tpch.V3DateHi.AsInt()
	for try := 0; try < 1000; try++ {
		keys := db.SampleLineitemKeys(n)
		rows := make([]rel.Row, len(keys))
		inView := false
		for i, k := range keys {
			// l_orderkey, l_partkey; o_orderdate; p_retailprice.
			rows[i], _ = li.Get(k...)
			o, _ := orders.Get(rows[i][0])
			p, _ := part.Get(rows[i][2])
			date := o[2].AsInt()
			inView = inView || (date >= lo && date <= hi && p[3].AsFloat() < 2000)
		}
		if !inView {
			continue
		}
		if holdOut {
			return db.Catalog.Delete("lineitem", keys)
		}
		return rows, nil
	}
	return nil, fmt.Errorf("no %d-row lineitem batch reaches V3's core view", n)
}

// Run applies the point's batch to its base table and maintains the view.
func (s *Setup) Run() (Fig5Result, error) { return s.apply(s.Batch != LineitemDelete) }

// Undo reverses Run the same way, so a Go benchmark can repeat Run on one
// setup.
func (s *Setup) Undo() (Fig5Result, error) { return s.apply(s.Batch == LineitemDelete) }

// apply inserts (or deletes) the batch and maintains the view, timing the
// maintenance step only: the base-table change costs the same under every
// method.
func (s *Setup) apply(insert bool) (Fig5Result, error) {
	maintain := s.target.OnDelete
	var err error
	if insert {
		maintain = s.target.OnInsert
		err = s.cat.Insert(s.table, s.rows)
	} else {
		t := s.cat.Table(s.table)
		keys := make([][]rel.Value, len(s.rows))
		for i, r := range s.rows {
			keys[i] = r.Project(t.KeyCols())
		}
		_, err = s.cat.Delete(s.table, keys)
	}
	if err != nil {
		return Fig5Result{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	st, err := maintain(s.table, s.rows)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return Fig5Result{}, fmt.Errorf("%s: %w", s.Label, err)
	}
	return Fig5Result{Point: s.Point, Elapsed: elapsed, MaintStats: *st,
		Allocs: after.Mallocs - before.Mallocs, AllocBytes: after.TotalAlloc - before.TotalAlloc, HeapAlloc: after.HeapAlloc}, nil
}

// Run measures every point on reps fresh setups (at least one) and reports
// the median elapsed time and allocations of each, with the row counts of
// its last run: every run of a point maintains the same batch. Single-shot
// timings at microsecond scale are dominated by GC and cache warm-up noise.
func Run(points []Point, reps int) ([]Fig5Result, error) {
	results := make([]Fig5Result, len(points))
	for i, p := range points {
		var times []time.Duration
		var allocs, bytes []uint64
		for rep := 0; rep < max(reps, 1); rep++ {
			s, err := NewSetup(p)
			if err != nil {
				return nil, err
			}
			if results[i], err = s.Run(); err != nil {
				return nil, err
			}
			times = append(times, results[i].Elapsed)
			allocs = append(allocs, results[i].Allocs)
			bytes = append(bytes, results[i].AllocBytes)
		}
		results[i].Elapsed, results[i].Allocs, results[i].AllocBytes = median(times), median(allocs), median(bytes)
	}
	return results, nil
}

func median[T cmp.Ordered](xs []T) T {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// Fig5 lists the points of Figure 5(a) (insert) or 5(b): every paper batch
// size under every method, in that order.
func Fig5(sf float64, seed int64, insert bool, methods []Method, opts view.Options) []Point {
	batch := LineitemDelete
	if insert {
		batch = LineitemInsert
	}
	var ps []Point
	for _, paperN := range PaperNs {
		for _, m := range methods {
			ps = append(ps, Point{Label: fmt.Sprintf("%s/N=%d", m, paperN), Method: m, Batch: batch,
				N: ScaleN(paperN, sf), PaperN: paperN, SF: sf, Seed: seed, Opts: opts})
		}
	}
	return ps
}

// ScalingSFs are the database sizes of the scaling experiment.
var ScalingSFs = []float64{0.002, 0.005, 0.01, 0.02, 0.04}

// Scaling lists the points of the scaling extension, which goes beyond
// the paper's figures to isolate its central asymptotic claim: a fixed
// 120-row insert while the database grows. The paper's algorithm touches
// work proportional to the delta (index probes plus orphan point-lookups),
// so its cost should stay flat, while Griffin–Kumar change propagation
// joins whole base-table subexpressions and should grow linearly.
func Scaling(seed int64, opts view.Options) []Point {
	var ps []Point
	for _, sf := range ScalingSFs {
		for _, m := range Fig5Methods {
			ps = append(ps, Point{Label: fmt.Sprintf("%s/sf=%g", m, sf), Method: m, Batch: LineitemInsert,
				N: 120, SF: sf, Seed: seed, Opts: opts})
		}
	}
	return ps
}

// Ablations lists the five ablations of DESIGN.md §4, each as two points
// that differ in one maintenance switch, the design as built first. Labels
// are "<ablation>/<variant>".
func Ablations(sf float64, seed int64, opts view.Options) []Point {
	li := Point{Method: MethodOJV, Batch: LineitemInsert, N: ScaleN(60000, sf), SF: sf, Seed: seed, Opts: opts}
	cust, del, v1 := li, li, li
	cust.Batch, cust.N = CustomerInsert, ScaleN(15000, sf)
	del.Batch = LineitemDelete
	v1.Batch, v1.N = V1Insert, 200
	variant := func(p Point, label string, set func(*Point)) Point {
		p.Label = label
		if set != nil {
			set(&p)
		}
		return p
	}
	return []Point{
		variant(li, "secondary-source/view", nil),
		variant(li, "secondary-source/base", func(p *Point) { p.Method = MethodOJVBase }),
		variant(cust, "theorem3/on", nil),
		variant(cust, "theorem3/off", func(p *Point) { p.Opts.DisableFKGraph, p.Opts.DisableFKSimplify = true, true }),
		variant(v1, "left-deep/left-deep", nil),
		variant(v1, "left-deep/bushy", func(p *Point) { p.Opts.DisableLeftDeep = true }),
		variant(v1, "fk-simplify/on", nil),
		variant(v1, "fk-simplify/off", func(p *Point) { p.Opts.DisableFKSimplify = true }),
		variant(del, "orphan-index/on", nil),
		variant(del, "orphan-index/off", func(p *Point) { p.Opts.DisableOrphanIndex = true }),
	}
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

// table1Terms are the tables of each Table 1 term.
var table1Terms = [][]string{
	{"customer", "lineitem", "orders", "part"},
	{"customer", "lineitem", "orders"},
	{"customer"},
	{"part"},
}

// Table1 materializes V3, records the per-term cardinalities, inserts the
// scaled equivalent of the paper's 60,000-row lineitem batch and records
// how many rows of each term the insertion affected: COLP and COL from the
// primary delta split by pattern, C and P from the secondary delta.
func Table1(sf float64, seed int64, opts view.Options) ([]Table1Row, error) {
	s, err := NewSetup(Point{Label: "table1", Method: MethodOJV, Batch: LineitemInsert, N: ScaleN(60000, sf), SF: sf, Seed: seed, Opts: opts})
	if err != nil {
		return nil, err
	}
	mv := s.m.Materialized()
	rows := make([]Table1Row, len(table1Terms))
	for i, tables := range table1Terms {
		rows[i] = Table1Row{Term: Table1Paper[i].Term, Cardinality: mv.TermCardinality(tables)}
	}
	r, err := s.Run()
	if err != nil {
		return nil, err
	}
	for i, tables := range table1Terms {
		if len(tables) == 1 {
			rows[i].Affected = r.SecondaryByTerm(tables[0])
		} else {
			rows[i].Affected = mv.TermCardinality(tables) - rows[i].Cardinality
		}
	}
	return rows, nil
}
