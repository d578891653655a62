package ojv_test

import (
	"runtime"
	"testing"

	"ojv"
	"ojv/internal/algebra"
	"ojv/internal/fixture"
	"ojv/internal/rel"
	"ojv/internal/tpch"
)

// A view's ΔV^D programs are compiled once and cached on its maintenance
// plans (DESIGN.md §10, "Compile and Start"). The two tests here pin what
// that must not cost — a physical choice that ignores later DDL — and what
// it must buy — a statement that allocates for its probes, not for
// rebuilding its pipeline.

// TestDDLReachesPhysicalPlan: an index that appears after a view's first
// maintenance run is probed by the next run. The join attribute starts
// without an index, so statement 1 hash-builds the child table; after
// CreateIndex — or AddForeignKey, which always leaves an index on the
// referencing columns — statement 2 probes it and builds nothing.
func TestDDLReachesPhysicalPlan(t *testing.T) {
	ddl := map[string]func(db *ojv.Database) error{
		"CreateIndex": func(db *ojv.Database) error { return db.CreateIndex("c", "c_pfk", "pfk") },
		"AddForeignKey": func(db *ojv.Database) error {
			return db.AddForeignKey("c", []string{"pfk"}, "p", []string{"pk"})
		},
	}
	for name, apply := range ddl {
		t.Run(name, func(t *testing.T) {
			db := ojv.NewDatabase()
			db.MustCreateTable("p", ojv.Cols(ojv.IntCol("pk"), ojv.IntCol("g")), "pk")
			db.MustCreateTable("c", ojv.Cols(ojv.IntCol("ck"), ojv.NotNull(ojv.IntCol("pfk")), ojv.IntCol("x")), "ck")
			var parents, children []ojv.Row
			for i := int64(0); i < 50; i++ {
				parents = append(parents, ojv.Row{ojv.Int(i), ojv.Int(i % 7)})
			}
			for i := int64(0); i < 200; i++ {
				children = append(children, ojv.Row{ojv.Int(i), ojv.Int(i % 40), ojv.Int(i)})
			}
			if err := db.Insert("p", parents); err != nil {
				t.Fatal(err)
			}
			if err := db.Insert("c", children); err != nil {
				t.Fatal(err)
			}
			metrics := ojv.NewMetrics()
			v, err := db.CreateView("pc",
				ojv.Table("p").LeftJoin(ojv.Table("c"), ojv.Eq("p", "pk", "c", "pfk")),
				ojv.Columns("p.pk", "p.g", "c.ck", "c.pfk", "c.x"),
				ojv.Options{Metrics: metrics, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			// statement inserts one parent and returns what the run added to
			// the hash-build and index-probe counters.
			statement := func(pk int64) (built, probed int64) {
				t.Helper()
				before := metrics.Snapshot()
				if err := db.Insert("p", []ojv.Row{{ojv.Int(pk), ojv.Int(1)}}); err != nil {
					t.Fatal(err)
				}
				if err := v.Check(); err != nil {
					t.Fatal(err)
				}
				after := metrics.Snapshot()
				return after["exec.join.hash.build_rows"] - before["exec.join.hash.build_rows"],
					after["exec.join.index.probe_rows"] - before["exec.join.index.probe_rows"]
			}
			if built, probed := statement(1000); built == 0 || probed != 0 {
				t.Fatalf("before the index: hash-built %d rows, index-probed %d; want a hash build and no probe", built, probed)
			}
			if err := apply(db); err != nil {
				t.Fatal(err)
			}
			if built, probed := statement(1001); built != 0 || probed == 0 {
				t.Fatalf("after %s: hash-built %d rows, index-probed %d; want probes and no build", name, built, probed)
			}
		})
	}
}

// statementPairCost returns the objects and bytes one 1-row insert plus the
// delete that undoes it allocate, averaged over 50 pairs after a warm-up
// pair (plans build and compile there).
func statementPairCost(t *testing.T, db *ojv.Database, table string, row ojv.Row, key []ojv.Value) (objects, bytes float64) {
	t.Helper()
	pair := func() {
		if err := db.Insert(table, []ojv.Row{row}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Delete(table, [][]ojv.Value{key}); err != nil {
			t.Fatal(err)
		}
	}
	pair()
	const rounds = 50
	objects = testing.AllocsPerRun(rounds, pair)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	return objects, float64(after.TotalAlloc-before.TotalAlloc) / rounds
}

// TestStatementAllocBudget is the allocation guard for a synchronous
// statement, run in CI beside exec's TestAllocBudget: a 1-row child insert
// and the delete that undoes it, on the V2 view of Example 11 and on the
// 3-join TPC-H view V3, must stay within a recorded budget of objects and
// bytes. The commit before programs were cached measures 269–273 objects /
// 16.0–17.2 kB per pair on V2 and 350–358 / 34.7–36.2 kB on V3; this one
// 173–181 / 10.2–11.7 kB and 186–197 / 15.7–17.9 kB (the spread is between
// processes: hash seeds shape the maps and the published tries). The V3
// budget is 60 % of the old cost. On V2, where pipeline construction was a
// third of the statement rather than half, it is 72–75 % — still a quarter
// of the old construction cost away from what is measured, so per-run
// schema derivation, predicate compilation or offset resolution creeping
// back into the statement path trips it on either view.
func TestStatementAllocBudget(t *testing.T) {
	t.Run("V2", func(t *testing.T) {
		cat, err := fixture.COL(fixture.COLOptions{Customers: 50, Orders: 200, Lineitems: 600, Seed: 3, WithFK: true})
		if err != nil {
			t.Fatal(err)
		}
		// A line item of an order the view's σ[O.a>0] keeps, so the delta
		// joins through.
		orders := cat.Table("O").Rows()
		rel.SortRows(orders)
		var order rel.Value
		for _, o := range orders {
			if o[2].AsInt() > 0 {
				order = o[0]
				break
			}
		}
		db := ojv.WrapCatalog(cat)
		if _, err := db.CreateView("v2", ojv.ExprRel(fixture.V2Expr()), fixture.V2Output(cat), ojv.Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
		key := []ojv.Value{ojv.Int(1 << 20)}
		objects, bytes := statementPairCost(t, db, "L", ojv.Row{key[0], order}, key)
		checkBudget(t, objects, bytes, 195, 12400)
	})
	t.Run("V3", func(t *testing.T) {
		tdb, err := tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// A line item of an order inside V3's date range.
		ot := tdb.Catalog.Table("orders")
		inRange, err := algebra.MakeAnd(
			algebra.CmpConst("orders", "o_orderdate", algebra.OpGe, tpch.V3DateLo),
			algebra.CmpConst("orders", "o_orderdate", algebra.OpLe, tpch.V3DateHi),
		).Compile(ot.Schema())
		if err != nil {
			t.Fatal(err)
		}
		var row ojv.Row
		for row == nil {
			cand := tdb.NewLineitems(1)[0]
			if o, ok := ot.Get(cand[0]); ok && inRange(o) == algebra.True {
				row = cand
			}
		}
		db := ojv.WrapCatalog(tdb.Catalog)
		if _, err := db.CreateView("v3", ojv.ExprRel(tpch.V3Expr()), tpch.V3Output(), ojv.Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
		objects, bytes := statementPairCost(t, db, "lineitem", row, row[:2])
		checkBudget(t, objects, bytes, 212, 21000)
	})
}

func checkBudget(t *testing.T, objects, bytes, maxObjects, maxBytes float64) {
	t.Helper()
	t.Logf("insert + delete pair: %.0f objects, %.0f B", objects, bytes)
	if objects > maxObjects {
		t.Errorf("pair allocates %.0f objects, budget %.0f", objects, maxObjects)
	}
	if bytes > maxBytes {
		t.Errorf("pair allocates %.0f B, budget %.0f", bytes, maxBytes)
	}
}
