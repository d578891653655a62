// Benchmarks regenerating the paper's evaluation (one benchmark per table
// and figure) plus the ablation benches listed in DESIGN.md §4. The points
// are defined and timed by internal/bench, the same code cmd/ojbench
// prints. Absolute numbers come from an in-memory engine at a reduced
// scale factor; the experiments reproduce the paper's relative results —
// which method wins and by what order of magnitude.
//
// Run with: go test -run '^$' -bench .
package ojv_test

import (
	"strings"
	"testing"

	"ojv"
	"ojv/internal/algebra"
	"ojv/internal/bench"
	"ojv/internal/exec"
	"ojv/internal/rel"
	"ojv/internal/tpch"
	"ojv/internal/view"
)

// benchSF is the TPC-H scale factor used by the benchmarks; the paper runs
// SF=1. Batch sizes are scaled accordingly.
const benchSF = 0.01

// benchPoints runs each point whose label has the prefix as a
// sub-benchmark: one setup, then b.N timed runs of the point, each undone
// before the next. ns/op, B/op and allocs/op report the maintenance step
// alone, as the runner measures it for cmd/ojbench.
func benchPoints(b *testing.B, prefix string, points []bench.Point) {
	for _, p := range points {
		name, ok := strings.CutPrefix(p.Label, prefix)
		if !ok {
			continue
		}
		b.Run(name, func(b *testing.B) {
			s, err := bench.NewSetup(p)
			if err != nil {
				b.Fatal(err)
			}
			var sum bench.Fig5Result
			for i := 0; i < b.N; i++ {
				r, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				sum.Elapsed += r.Elapsed
				sum.Allocs += r.Allocs
				sum.AllocBytes += r.AllocBytes
				if _, err := s.Undo(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sum.Elapsed.Nanoseconds())/float64(b.N), "ns/op")
			b.ReportMetric(float64(sum.AllocBytes)/float64(b.N), "B/op")
			b.ReportMetric(float64(sum.Allocs)/float64(b.N), "allocs/op")
		})
	}
}

// BenchmarkTable1TermStats measures the full Table 1 experiment: term
// cardinalities plus the rows affected by the scaled 60,000-row insert.
func BenchmarkTable1TermStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(benchSF, 1, view.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5aInsert reproduces Figure 5(a): maintenance cost of V3 after
// lineitem insertions, for the core view, the outer-join view and the GK
// baseline.
func BenchmarkFig5aInsert(b *testing.B) {
	benchPoints(b, "", bench.Fig5(benchSF, 1, true, bench.Fig5Methods, view.Options{}))
}

// BenchmarkFig5bDelete reproduces Figure 5(b): maintenance cost of V3 after
// lineitem deletions.
func BenchmarkFig5bDelete(b *testing.B) {
	benchPoints(b, "", bench.Fig5(benchSF, 1, false, bench.Fig5Methods, view.Options{}))
}

// The ablations of DESIGN.md §4, one benchmark per design choice.

func BenchmarkAblationSecondarySource(b *testing.B) { benchAblation(b, "secondary-source/") }
func BenchmarkAblationTheorem3(b *testing.B)        { benchAblation(b, "theorem3/") }
func BenchmarkAblationLeftDeep(b *testing.B)        { benchAblation(b, "left-deep/") }
func BenchmarkAblationFKSimplify(b *testing.B)      { benchAblation(b, "fk-simplify/") }
func BenchmarkAblationOrphanIndex(b *testing.B)     { benchAblation(b, "orphan-index/") }

func benchAblation(b *testing.B, prefix string) {
	benchPoints(b, prefix, bench.Ablations(benchSF, 1, view.Options{}))
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
