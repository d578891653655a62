package exec

import (
	"strings"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/rel"
)

// TestAllocBudget is the allocation-regression guard for the streaming
// pipeline (run in CI as its own job): hot paths must stay amortized-free
// of per-row allocations. Budgets are expressed per input row and set ~3×
// above the measured steady state, so real regressions (a per-row clone, a
// per-probe key string) trip them while allocator noise does not.
func TestAllocBudget(t *testing.T) {
	const n = 8192
	sch := rel.Schema{
		{Table: "t", Name: "k", Kind: rel.KindInt},
		{Table: "t", Name: "v", Kind: rel.KindInt},
	}
	big := Relation{Schema: sch}
	for i := 0; i < n; i++ {
		big.Rows = append(big.Rows, rel.Row{rel.Int(int64(i)), rel.Int(int64(i % 97))})
	}
	small := Relation{Schema: rel.Schema{
		{Table: "u", Name: "k", Kind: rel.KindInt},
		{Table: "u", Name: "v", Kind: rel.KindInt},
	}}
	for i := 0; i < 64; i++ {
		small.Rows = append(small.Rows, rel.Row{rel.Int(int64(i)), rel.Int(int64(i))})
	}
	rels := map[string]Relation{"big": big, "small": small}
	ref := func(name, table string) algebra.Expr {
		return &algebra.RelRef{Name: name, TableNames: []string{table}}
	}

	cases := []struct {
		name         string
		expr         algebra.Expr
		allocsPerRow float64
	}{
		// Scan + select reuse the caller's batch and compact in place: the
		// only allocations are the batch backing array and the drained
		// output's amortized growth.
		{
			name:         "select-scan",
			expr:         &algebra.Select{Input: ref("big", "t"), Pred: algebra.CmpConst("t", "v", algebra.OpLt, rel.Int(50))},
			allocsPerRow: 0.02,
		},
		// Semi join emits left rows by reference; probing reuses per-worker
		// scratch, so allocations are the build table plus batch plumbing.
		{
			name: "semijoin-probe",
			expr: &algebra.Join{
				Kind:  algebra.SemiJoin,
				Left:  ref("big", "t"),
				Right: ref("small", "u"),
				Pred:  algebra.Eq("t", "v", "u", "v"),
			},
			allocsPerRow: 0.15,
		},
		// Anti join, nested-loop candidates (no equijoin): per-row work is
		// pure predicate evaluation against reused scratch.
		{
			name: "antijoin-nested",
			expr: &algebra.Join{
				Kind:  algebra.AntiJoin,
				Left:  ref("big", "t"),
				Right: ref("small", "u"),
				Pred: algebra.Cmp{
					Left:  algebra.ColOperand("t", "v"),
					Op:    algebra.OpLt,
					Right: algebra.ColOperand("u", "v"),
				},
			},
			allocsPerRow: 0.02,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := &Context{Catalog: rel.NewCatalog(), Rels: rels}
			avg := testing.AllocsPerRun(5, func() {
				if _, err := Eval(ctx, tc.expr); err != nil {
					t.Fatal(err)
				}
			})
			budget := tc.allocsPerRow * n
			if avg > budget {
				t.Errorf("%s: %.0f allocs per evaluation over %d rows, budget %.0f",
					tc.name, avg, n, budget)
			}
		})
	}
}

// TestInstanceRestartAllocs: an Instance restarts the operator tree of its
// previous run in place, so a run of a one-row delta through two index
// probes allocates only what it emits — each join's output row — and
// nothing per operator, where a fresh Program.Start allocates every
// operator and grows every scratch batch again.
func TestInstanceRestartAllocs(t *testing.T) {
	cat := rel.NewCatalog()
	for _, name := range []string{"a", "b", "c"} {
		if _, err := cat.CreateTable(name, []rel.Column{{Name: "k", Kind: rel.KindInt}, {Name: "j", Kind: rel.KindInt}}, "k"); err != nil {
			t.Fatal(err)
		}
		rows := make([]rel.Row, 64)
		for i := range rows {
			rows[i] = rel.Row{rel.Int(int64(i)), rel.Int(int64(i))}
		}
		if err := cat.Insert(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	// Δa ⋈ b ⋈ c, each join probing the right table's unique key.
	expr := &algebra.Join{
		Kind: algebra.InnerJoin,
		Left: &algebra.Join{Kind: algebra.InnerJoin, Left: &algebra.DeltaRef{Name: "a"}, Right: &algebra.TableRef{Name: "b"},
			Pred: algebra.Eq("a", "j", "b", "k")},
		Right: &algebra.TableRef{Name: "c"},
		Pred:  algebra.Eq("b", "j", "c", "k"),
	}
	prog, err := Compile(cat, nil, expr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.String(), "join.index") {
		t.Fatalf("the joins do not probe:\n%s", prog)
	}
	ctx := &Context{Catalog: cat, DeltaTable: "a", Delta: []rel.Row{{rel.Int(7), rel.Int(7)}}, DeltaIsInsert: true}
	run := func(start func(*Context) (Source, error), b *Batch) {
		src, err := start(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Open(); err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			ok, err := src.Next(b)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			rows += b.Len()
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		if rows != 1 {
			t.Fatalf("the run emitted %d rows, want 1", rows)
		}
	}
	inst, b := prog.Instance(), new(Batch)
	run(inst.Start, b) // the scratch reaches its size here
	restarted := testing.AllocsPerRun(50, func() { run(inst.Start, b) })
	fresh := testing.AllocsPerRun(50, func() { run(prog.Start, new(Batch)) })
	t.Logf("a run allocates %.0f objects restarted, %.0f started fresh", restarted, fresh)
	if restarted > 2 {
		t.Errorf("a restarted run allocates %.0f objects, want at most the two joins' output rows", restarted)
	}
}
