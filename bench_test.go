// Benchmarks regenerating the paper's evaluation (one benchmark per table
// and figure) plus the ablation benches listed in DESIGN.md. Absolute
// numbers come from an in-memory engine at a reduced scale factor; the
// experiments reproduce the paper's relative results — which method wins
// and by what order of magnitude.
//
// Run with: go test -bench=. -benchmem
package ojv_test

import (
	"fmt"
	"testing"

	"ojv"
	"ojv/internal/algebra"
	"ojv/internal/bench"
	"ojv/internal/exec"
	"ojv/internal/fixture"
	"ojv/internal/rel"
	"ojv/internal/tpch"
	"ojv/internal/view"
)

// benchSF is the TPC-H scale factor used by the benchmarks; the paper runs
// SF=1. Batch sizes are scaled accordingly.
const benchSF = 0.01

// cycleSetup prepares a V3 setup and a reusable batch: each benchmark
// iteration inserts the batch (measured for insert benches) and deletes it
// again (measured for delete benches), so one generated database serves all
// iterations.
func cycleSetup(b *testing.B, method bench.Method, paperN int) (*bench.Setup, []rel.Row) {
	b.Helper()
	n := bench.ScaleN(paperN, benchSF)
	s, err := bench.NewSetup(benchSF, 1, method, n)
	if err != nil {
		b.Fatal(err)
	}
	return s, s.TakeHeldOut()
}

// BenchmarkTable1TermStats measures the full Table 1 experiment: term
// cardinalities plus the rows affected by the scaled 60,000-row insert.
func BenchmarkTable1TermStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1(benchSF, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("table1 rows = %d", len(rows))
		}
	}
}

// BenchmarkFig5aInsert reproduces Figure 5(a): maintenance cost of V3 after
// lineitem insertions, for the core view, the outer-join view and the GK
// baseline.
func BenchmarkFig5aInsert(b *testing.B) {
	for _, method := range bench.Fig5Methods {
		for _, paperN := range bench.PaperNs {
			b.Run(fmt.Sprintf("%s/N=%d", method, paperN), func(b *testing.B) {
				s, batch := cycleSetup(b, method, paperN)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.InsertBatch(batch); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if _, err := s.DeleteBatch(batch); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkFig5bDelete reproduces Figure 5(b): maintenance cost of V3 after
// lineitem deletions.
func BenchmarkFig5bDelete(b *testing.B) {
	for _, method := range bench.Fig5Methods {
		for _, paperN := range bench.PaperNs {
			b.Run(fmt.Sprintf("%s/N=%d", method, paperN), func(b *testing.B) {
				s, batch := cycleSetup(b, method, paperN)
				// Start from the full database: insert the batch up front.
				if _, err := s.InsertBatch(batch); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.DeleteBatch(batch); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if _, err := s.InsertBatch(batch); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkAblationSecondarySource compares computing the secondary delta
// from the view (Section 5.2) against computing it from base tables
// (Section 5.3) on the largest insert batch.
func BenchmarkAblationSecondarySource(b *testing.B) {
	for _, method := range []bench.Method{bench.MethodOJV, bench.MethodOJVBase} {
		b.Run(string(method), func(b *testing.B) {
			s, batch := cycleSetup(b, method, 60000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.InsertBatch(batch); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if _, err := s.DeleteBatch(batch); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkAblationTheorem3 measures customer insertions with and without
// the FK-reduced maintenance graph (Section 6.2): with it, inserting
// customers touches only the {customer} term.
func BenchmarkAblationTheorem3(b *testing.B) {
	for _, disable := range []bool{false, true} {
		b.Run(fmt.Sprintf("fkGraphDisabled=%v", disable), func(b *testing.B) {
			s, err := bench.NewSetupOpts(benchSF, 1, view.Options{DisableFKGraph: disable, DisableFKSimplify: disable})
			if err != nil {
				b.Fatal(err)
			}
			cust := s.DB.Catalog.Table("customer")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rows := s.DB.NewCustomers(bench.ScaleN(15000, benchSF))
				if err := s.DB.Catalog.Insert("customer", rows); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := s.Target.OnInsertRows("customer", rows); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				keys := make([][]rel.Value, len(rows))
				for j, r := range rows {
					keys[j] = r.Project(cust.KeyCols())
				}
				deleted, err := s.DB.Catalog.Delete("customer", keys)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Target.OnDeleteRows("customer", deleted); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// v1CycleBench drives T-insert/T-delete cycles over the abstract V1 view
// (where the bushy ΔV^D tree joins two base tables, unlike V3's naturally
// left-deep shape).
func v1CycleBench(b *testing.B, opts view.Options) {
	b.Helper()
	cat, err := fixture.RSTU(fixture.RSTUOptions{Rows: 20000, Seed: 3, WithFK: true})
	if err != nil {
		b.Fatal(err)
	}
	def, err := view.Define(cat, "v1", fixture.V1Expr(true), fixture.V1Output(cat))
	if err != nil {
		b.Fatal(err)
	}
	m, err := view.NewMaintainer(def, opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Materialize(); err != nil {
		b.Fatal(err)
	}
	var rows []rel.Row
	var keys [][]rel.Value
	for i := 0; i < 200; i++ {
		k := int64(100000 + i)
		rows = append(rows, rel.Row{rel.Int(k), rel.Int(int64(i % 101)), rel.Int(int64(i % 97))})
		keys = append(keys, []rel.Value{rel.Int(k)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := cat.Insert("T", rows); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.OnInsert("T", rows); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		deleted, err := cat.Delete("T", keys)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.OnDelete("T", deleted); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkAblationLeftDeep compares the left-deep ΔV^D tree (Section 4.1)
// against the bushy tree produced by the basic Section 4 transform.
func BenchmarkAblationLeftDeep(b *testing.B) {
	b.Run("left-deep", func(b *testing.B) { v1CycleBench(b, view.Options{}) })
	b.Run("bushy", func(b *testing.B) { v1CycleBench(b, view.Options{DisableLeftDeep: true}) })
}

// BenchmarkAblationFKSimplify compares ΔV^D with and without the
// SimplifyTree pass (Section 6.1), which removes the ΔT lo U probe.
func BenchmarkAblationFKSimplify(b *testing.B) {
	b.Run("simplified", func(b *testing.B) { v1CycleBench(b, view.Options{}) })
	b.Run("unsimplified", func(b *testing.B) { v1CycleBench(b, view.Options{DisableFKSimplify: true}) })
}

// BenchmarkAblationOrphanIndex compares lineitem deletions with and without
// the per-table orphan index on the view (new-orphan containment checks
// fall back to view scans without it).
func BenchmarkAblationOrphanIndex(b *testing.B) {
	for _, disable := range []bool{false, true} {
		b.Run(fmt.Sprintf("indexDisabled=%v", disable), func(b *testing.B) {
			s, err := bench.NewSetupOpts(benchSF, 1, view.Options{DisableOrphanIndex: disable})
			if err != nil {
				b.Fatal(err)
			}
			batch := s.DB.NewLineitems(bench.ScaleN(60000, benchSF))
			if _, err := s.InsertBatch(batch); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.DeleteBatch(batch); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if _, err := s.InsertBatch(batch); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkHashJoinBuild measures the equijoin hash-table build and probe
// path; run with -benchmem to see the effect of the scratch-buffer key
// hashing (the build and probe loops allocate no per-row key strings).
func BenchmarkHashJoinBuild(b *testing.B) {
	mkRel := func(table string, n, keys int) exec.Relation {
		r := exec.Relation{Schema: rel.Schema{
			{Table: table, Name: "k", Kind: rel.KindInt},
			{Table: table, Name: "v", Kind: rel.KindInt},
		}}
		for i := 0; i < n; i++ {
			r.Rows = append(r.Rows, rel.Row{rel.Int(int64(i % keys)), rel.Int(int64(i))})
		}
		return r
	}
	left := mkRel("t", 4000, 1000)
	right := mkRel("u", 4000, 1000)
	ctx := &exec.Context{
		Catalog: rel.NewCatalog(),
		Rels:    map[string]exec.Relation{"L": left, "R": right},
	}
	join := &algebra.Join{
		Kind:  algebra.InnerJoin,
		Left:  &algebra.RelRef{Name: "L", TableNames: []string{"t"}},
		Right: &algebra.RelRef{Name: "R", TableNames: []string{"u"}},
		Pred:  algebra.Eq("t", "k", "u", "k"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := exec.Eval(ctx, join)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Rows) == 0 {
			b.Fatal("empty join result")
		}
	}
}

// BenchmarkOJViewExample1 measures Example 1's oj_view under lineitem
// churn through the public API.
func BenchmarkOJViewExample1(b *testing.B) {
	tdb, err := tpch.Generate(tpch.Config{ScaleFactor: benchSF, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	db := ojv.WrapCatalog(tdb.Catalog)
	if _, err := db.CreateView("oj_view",
		ojv.Table("part").FullJoin(
			ojv.Table("orders").LeftJoin(ojv.Table("lineitem"),
				ojv.Eq("lineitem", "l_orderkey", "orders", "o_orderkey")),
			ojv.Eq("part", "p_partkey", "lineitem", "l_partkey")),
		tpch.OJViewOutput()); err != nil {
		b.Fatal(err)
	}
	batch := tdb.NewLineitems(bench.ScaleN(60000, benchSF))
	lt := tdb.Catalog.Table("lineitem")
	keys := make([][]ojv.Value, len(batch))
	for i, r := range batch {
		keys[i] = r.Project(lt.KeyCols())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Insert("lineitem", batch); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Delete("lineitem", keys); err != nil {
			b.Fatal(err)
		}
	}
}
