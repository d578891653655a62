package ojv_test

import (
	"fmt"
	"runtime"
	"strings"
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

// TestDDLReachesPhysicalPlan: a registered view's join attribute never
// lacks an index — CreateView arranges one (DESIGN.md §16) — so statement 1
// already probes, and DDL over the arranged columns reaches the cached
// programs without costing the probe: CreateIndex and AddForeignKey adopt
// the arrangement (the next run's plan names the declared index), DropView
// of the only other holder leaves it to the survivor. Every statement
// probes, builds no hash table and leaves the view equal to recomputation.
// (The hash-then-CreateIndex-then-probe upgrade of a maintainer that has
// not arranged is internal/view's TestUnarrangedProgramUpgradesOnDDL.)
func TestDDLReachesPhysicalPlan(t *testing.T) {
	ddl := map[string]struct {
		apply func(db *ojv.Database) error
		via   string
	}{
		"CreateIndex": {func(db *ojv.Database) error { return db.CreateIndex("c", "c_pfk", "pfk") }, "index c_pfk(pfk)"},
		"AddForeignKey": {func(db *ojv.Database) error {
			return db.AddForeignKey("c", []string{"pfk"}, "p", []string{"pk"})
		}, "index arr_c_pfk(pfk)"},
		"DropView": {func(db *ojv.Database) error {
			if !db.DropView("twin") {
				return fmt.Errorf("view twin is not registered")
			}
			return nil
		}, "index arr_c_pfk(pfk)"},
	}
	for name, c := range ddl {
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
			on := ojv.Eq("p", "pk", "c", "pfk")
			cols := ojv.Columns("p.pk", "p.g", "c.ck", "c.pfk", "c.x")
			v, err := db.CreateView("pc", ojv.Table("p").LeftJoin(ojv.Table("c"), on), cols,
				ojv.Options{Metrics: metrics})
			if err != nil {
				t.Fatal(err)
			}
			// The twin probes the same columns through a different join kind:
			// one arrangement, two holders, and its own probes go to its own
			// registry, which is nil.
			if _, err := db.CreateView("twin", ojv.Table("p").Join(ojv.Table("c"), on), cols,
				ojv.Options{}); err != nil {
				t.Fatal(err)
			}
			// statement inserts one parent and requires that the run probed
			// through the named index and hash-built nothing.
			statement := func(when string, pk int64, via string) {
				t.Helper()
				before := metrics.Snapshot()
				if err := db.Insert("p", []ojv.Row{{ojv.Int(pk), ojv.Int(1)}}); err != nil {
					t.Fatal(err)
				}
				if err := v.Check(); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				after := metrics.Snapshot()
				built := after["exec.join.hash.build_rows"] - before["exec.join.hash.build_rows"]
				probed := after["exec.join.index.probe_rows"] - before["exec.join.index.probe_rows"]
				if built != 0 || probed == 0 {
					t.Fatalf("%s: hash-built %d rows, index-probed %d; want probes and no build", when, built, probed)
				}
				plan, err := v.Maintainer().Plan("p", true)
				if err != nil {
					t.Fatal(err)
				}
				if phys := plan.Program().String(); !strings.Contains(phys, "probe c via "+via) {
					t.Fatalf("%s: physical plan lacks a probe via %s:\n%s", when, via, phys)
				}
			}
			statement("statement 1", 1000, "index arr_c_pfk(pfk)")
			if err := c.apply(db); err != nil {
				t.Fatal(err)
			}
			statement("after "+name, 1001, c.via)
			// The survivor keeps probing when the only other holder goes.
			db.DropView("twin")
			statement("after the twin is dropped", 1002, c.via)
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
// 16.0–17.2 kB per pair on V2 and 350–358 / 34.7–36.2 kB on V3; the one
// that cached them 173–181 / 10.2–11.7 kB and 186–197 / 15.7–17.9 kB; the
// one with 24-byte values and the handle store behind the view 160–173 /
// 9.8–11.4 kB and 170–178 / 12.8–14.4 kB over 25 processes, and its
// successor, which gave views a vector epoch, 145–153 / 9.0–10.2 kB and
// 153–157 / 12.4–13.1 kB over 12 (the spread was between processes: hash
// seeds shaped the published tries). With base tables on the slab and a
// vector epoch, and one delta bound per run, both read the same in every
// process: 137 / 8.8 kB and 149 / 11.9 kB; with no duplicate-key set for a
// one-row statement, 136 / 8.65 kB and 148 / 11.70 kB. With epochs sealed
// when a reader pins them, not at every commit (nothing pins here), and one
// program instance per plan restarted for every run: 74 / 2 952 B and
// 74 / 5 128 B, every process.
// The budgets sit about 10 % above those readings, so
// per-run schema derivation, predicate compilation or offset resolution
// creeping back into the statement path trips them on either view, and so
// does a per-table key string or set coming back into the view apply, an
// epoch path copied per commit or an operator tree allocated per run.
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
		if _, err := db.CreateView("v2", ojv.ExprRel(fixture.V2Expr()), fixture.V2Output(cat), ojv.Options{}); err != nil {
			t.Fatal(err)
		}
		key := []ojv.Value{ojv.Int(1 << 20)}
		objects, bytes := statementPairCost(t, db, "L", ojv.Row{key[0], order}, key)
		checkBudget(t, objects, bytes, 82, 3250)
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
		if _, err := db.CreateView("v3", ojv.ExprRel(tpch.V3Expr()), tpch.V3Output(), ojv.Options{}); err != nil {
			t.Fatal(err)
		}
		objects, bytes := statementPairCost(t, db, "lineitem", row, row[:2])
		checkBudget(t, objects, bytes, 82, 5650)
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
