package ojv_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ojv"
	"ojv/internal/algebra"
	"ojv/internal/fixture"
	"ojv/internal/rel"
)

// "Small delta ⇒ a few index probes" (paper §7) as a property of every
// registered view, and as a number on the benchmark's own view shape. Both
// tests run in CI's alloc-budget job: they count rows, never time.

// execCounters reads the executor counters the two tests bound.
type execCounters struct{ built, scanned, probed, examined int64 }

func readExec(m *ojv.Metrics) execCounters {
	s := m.Snapshot()
	return execCounters{
		built:   s["exec.join.hash.build_rows"],
		scanned: s["exec.rows.scanned"],
		probed:  s["exec.join.index.probe_rows"],
		examined: s["exec.rows.scanned"] + s["exec.join.hash.build_rows"] + s["exec.join.hash.probe_rows"] +
			s["exec.join.index.probe_rows"] + s["exec.join.nested.probe_rows"],
	}
}

// TestSteadyStateProbesOnly: on catalogs that declare no secondary index,
// over 200 random SPOJ views (every join an equijoin) under each
// secondary-delta strategy and as aggregation views, a
// 1-row insert and the delete that undoes it — into every base table of the
// view — hash-build nothing and scan no more than the delta itself: every
// join of ΔV^D is served by a key or by an arrangement CreateView derived.
// The view equals recomputation after every statement.
func TestSteadyStateProbesOnly(t *testing.T) {
	variants := []struct {
		name string
		opts ojv.Options
		agg  bool
	}{
		{name: "default"},
		{name: "from-base", opts: ojv.Options{Strategy: ojv.StrategyFromBase}},
		{name: "aggregate", agg: true},
	}
	seeds := 80
	if testing.Short() {
		seeds = 10
	}
	views := 0
	for seed := 0; seed < seeds; seed++ {
		for _, vr := range variants {
			rng := rand.New(rand.NewSource(int64(4000 + seed)))
			cat, err := fixture.RandCatalogNoIndex(rng, 25)
			if err != nil {
				t.Fatal(err)
			}
			expr := fixture.RandSPOJ(rng)
			db := ojv.WrapCatalog(cat)
			metrics := ojv.NewMetrics()
			opts := vr.opts
			opts.Metrics = metrics
			var v *ojv.View
			if vr.agg {
				first := expr.Tables()[0]
				v, err = db.CreateAggregateView("v", ojv.ExprRel(expr), ojv.AggSpec{
					GroupCols: []algebra.ColRef{algebra.Col(first, first+"j")},
					Aggs:      []ojv.Aggregate{ojv.Count("n"), ojv.Sum(algebra.Col(first, first+"v"), "s")},
				}, opts)
			} else {
				v, err = db.CreateView("v", ojv.ExprRel(expr), fixture.RandOutput(cat, expr), opts)
			}
			if err != nil {
				t.Fatalf("seed %d %s: %v\n%s", seed, vr.name, err, algebra.FormatTree(expr))
			}
			views++
			statement := func(what string, run func() error) {
				t.Helper()
				before := readExec(metrics)
				if err := run(); err != nil {
					t.Fatalf("seed %d %s: %s: %v", seed, vr.name, what, err)
				}
				after := readExec(metrics)
				if built := after.built - before.built; built != 0 {
					t.Fatalf("seed %d %s: %s hash-built %d rows\n%s", seed, vr.name, what, built, algebra.FormatTree(expr))
				}
				if scanned := after.scanned - before.scanned; scanned > 1 {
					t.Fatalf("seed %d %s: %s scanned %d rows for a 1-row delta\n%s", seed, vr.name, what, scanned, algebra.FormatTree(expr))
				}
				if err := v.Check(); err != nil {
					t.Fatalf("seed %d %s: after %s: %v\n%s", seed, vr.name, what, err, algebra.FormatTree(expr))
				}
			}
			for i, table := range expr.Tables() {
				row := fixture.RandRow(rng, int64(1000+i))
				statement("insert into "+table, func() error { return db.Insert(table, []ojv.Row{row}) })
				statement("delete from "+table, func() error {
					_, err := db.Delete(table, [][]ojv.Value{{row[0]}})
					return err
				})
			}
		}
	}
	if !testing.Short() && views < 200 {
		t.Fatalf("only %d views exercised, want at least 200", views)
	}
}

// TestFromBaseCleanupIsCounted: the §5.3 anti-joins run with the run's
// Metrics, so a StrategyFromBase view's delete shows its from-base cleanup
// in exec.*. The same delete on a StrategyAuto twin, whose cleanup reads the
// view (§5.2), counts its ΔV^D evaluation alone; before the anti-joins carried
// Metrics the two counted the same.
func TestFromBaseCleanupIsCounted(t *testing.T) {
	examined := func(strategy ojv.Strategy) int64 {
		db := ojv.NewDatabase()
		db.MustCreateTable("p", ojv.Cols(ojv.IntCol("pk"), ojv.IntCol("pj")), "pk")
		db.MustCreateTable("c", ojv.Cols(ojv.IntCol("ck"), ojv.IntCol("cj")), "ck")
		if err := db.Insert("p", []ojv.Row{{ojv.Int(1), ojv.Int(10)}, {ojv.Int(2), ojv.Int(20)}}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("c", []ojv.Row{{ojv.Int(1), ojv.Int(10)}, {ojv.Int(2), ojv.Int(10)}, {ojv.Int(3), ojv.Int(20)}}); err != nil {
			t.Fatal(err)
		}
		metrics := ojv.NewMetrics()
		v, err := db.CreateView("v", ojv.Table("p").LeftJoin(ojv.Table("c"), ojv.Eq("p", "pj", "c", "cj")),
			ojv.Columns("p.pk", "p.pj", "c.ck", "c.cj"), ojv.Options{Strategy: strategy, Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		before := readExec(metrics)
		// p 2's only partner goes: p 2 becomes an orphan.
		if _, err := db.Delete("c", [][]ojv.Value{{ojv.Int(3)}}); err != nil {
			t.Fatal(err)
		}
		if err := v.Check(); err != nil {
			t.Fatal(err)
		}
		if got := v.TermCardinality("p"); got != 1 {
			t.Fatalf("%d orphans of p after the delete, want 1", got)
		}
		return readExec(metrics).examined - before.examined
	}
	fromView, fromBase := examined(ojv.StrategyAuto), examined(ojv.StrategyFromBase)
	if fromBase <= fromView {
		t.Fatalf("a from-base delete examined %d rows, its from-view twin %d: the §5.3 anti-join is not counted", fromBase, fromView)
	}
}

// TestMultiViewExaminedBudget is the benchmark's multi-view shape in small —
// σ(a) ⟕ (b ⟗ c) over three 200-row tables whose join attributes carry no
// declared index, four views differing in their selections — flushed one row
// at a time: a 1-row flush hash-builds nothing and examines at most four
// rows (scanned, built or probed) per ΔV^D row it produces. Every join
// value meets two rows per table, so each delta row joins through. Before
// arrangements the same flush scanned and hash-built the joined tables
// (hundreds of rows examined per output row).
func TestMultiViewExaminedBudget(t *testing.T) {
	const rows = 200
	db := ojv.NewDatabase()
	tables := []string{"a", "b", "c"}
	// The payload equals the join value, so the views' selections (v < 50+i)
	// keep the lower half of the join domain and drop the upper.
	newRow := func(key int) ojv.Row {
		return ojv.Row{ojv.Int(int64(key)), ojv.Int(int64(key % 100)), ojv.Int(int64(key % 100))}
	}
	for _, name := range tables {
		db.MustCreateTable(name, ojv.Cols(ojv.IntCol(name+"k"), ojv.IntCol(name+"j"), ojv.IntCol(name+"v")), name+"k")
		batch := make([]ojv.Row, rows)
		for i := range batch {
			batch[i] = newRow(i)
		}
		if err := db.Insert(name, batch); err != nil {
			t.Fatal(err)
		}
	}
	metrics := ojv.NewMetrics()
	var cols []string
	for _, name := range tables {
		cols = append(cols, name+"."+name+"k", name+"."+name+"j", name+"."+name+"v")
	}
	var views []*ojv.View
	for i := 0; i < 4; i++ {
		private := i >= 2
		leaf := func(name string, selected bool) ojv.Rel {
			r := ojv.Table(name)
			if selected {
				r = r.Where(ojv.Cmp(name, name+"v", algebra.OpLt, ojv.Int(int64(50+i))))
			}
			return r
		}
		expr := leaf("a", true).LeftJoin(
			leaf("b", private).FullJoin(leaf("c", private), ojv.Eq("b", "bj", "c", "cj")),
			ojv.Eq("a", "aj", "b", "bj"))
		v, err := db.CreateView(fmt.Sprintf("v%d", i), expr, ojv.Columns(cols...), ojv.Options{Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	wb := db.NewWriteBatch(ojv.BatchOptions{Metrics: metrics})
	flush := func(what string, stage func() error) {
		t.Helper()
		before, rowsBefore := readExec(metrics), metrics.Snapshot()["view.rows.primary"]
		if err := stage(); err != nil {
			t.Fatal(err)
		}
		if err := wb.Flush(); err != nil {
			t.Fatal(err)
		}
		after, rowsAfter := readExec(metrics), metrics.Snapshot()["view.rows.primary"]
		if built := after.built - before.built; built != 0 {
			t.Fatalf("%s: hash-built %d rows", what, built)
		}
		if after.probed == before.probed {
			t.Fatalf("%s: no index probe ran", what)
		}
		examined, output := after.examined-before.examined, rowsAfter-rowsBefore
		if output == 0 {
			t.Fatalf("%s: degenerate flush, the delta produced no ΔV^D row", what)
		}
		if examined > 4*output {
			t.Fatalf("%s: examined %d rows for %d primary-delta rows (budget 4 per output row)", what, examined, output)
		}
		for _, v := range views {
			if err := v.Check(); err != nil {
				t.Fatalf("%s: view %s: %v", what, v.Name(), err)
			}
		}
	}
	for i, table := range tables {
		row := newRow(rows + 7 + i)
		flush("insert into "+table, func() error { return wb.Insert(table, []ojv.Row{row}) })
		flush("delete from "+table, func() error {
			_, err := wb.Delete(table, [][]rel.Value{{row[0]}})
			return err
		})
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
}
