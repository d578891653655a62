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
	// r(k, v), indexed on v with 8 rows per key, of which the step added
	// the last 8: the delta table an old-state probe reads.
	cat := rel.NewCatalog()
	if _, err := cat.CreateTable("r", []rel.Column{{Name: "k", Kind: rel.KindInt}, {Name: "v", Kind: rel.KindInt}}, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("r", "r_v", "v"); err != nil {
		t.Fatal(err)
	}
	var rRows []rel.Row
	for i := 0; i < 512; i++ {
		rRows = append(rRows, rel.Row{rel.Int(int64(i)), rel.Int(int64(i % 64))})
	}
	if err := cat.Insert("r", rRows); err != nil {
		t.Fatal(err)
	}
	oldCtx := &Context{Catalog: cat, Rels: rels, DeltaTable: "r", Added: rRows[504:]}

	cases := []struct {
		name         string
		expr         algebra.Expr
		allocsPerRow float64
		ctx          *Context // nil: relations only
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
		// Semi join probing the index of the delta table's pre-step state:
		// a candidate is left out by its handle, from a set built once per
		// run, with no key encoded per candidate.
		{
			name: "semijoin-old-state-probe",
			expr: &algebra.Join{
				Kind:  algebra.SemiJoin,
				Left:  ref("big", "t"),
				Right: &algebra.OldTableRef{Name: "r"},
				Pred:  algebra.Eq("t", "v", "r", "v"),
			},
			allocsPerRow: 0.02,
			ctx:          oldCtx,
		},
		// A scan of the same pre-step state tests each row against the
		// added rows' keys through one reused key buffer, with no key
		// encoded per scanned row.
		{
			name:         "select-old-state-scan",
			expr:         &algebra.Select{Input: &algebra.OldTableRef{Name: "r"}, Pred: algebra.CmpConst("r", "v", algebra.OpLt, rel.Int(50))},
			allocsPerRow: 0.02,
			ctx:          oldCtx,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := tc.ctx
			if ctx == nil {
				ctx = &Context{Catalog: rel.NewCatalog(), Rels: rels}
			}
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
// previous run in place and its joins carve their output rows from the
// arena the context binds, which the caller resets between runs. So a
// restarted run of a 64-row delta through two index probes allocates
// nothing at all, where a fresh Program.Start allocates every operator and
// grows every scratch batch again.
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
	delta := make([]rel.Row, 64)
	for i := range delta {
		delta[i] = rel.Row{rel.Int(int64(i)), rel.Int(int64(i))}
	}
	ctx := &Context{Catalog: cat, DeltaTable: "a", Delta: delta, Arena: new(rel.Arena)}
	run := func(start func(*Context) (Source, error), b *Batch) {
		defer ctx.Arena.Reset()
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
		if rows != len(delta) {
			t.Fatalf("the run emitted %d rows, want %d", rows, len(delta))
		}
	}
	inst, b := prog.Instance(), new(Batch)
	run(inst.Start, b) // the scratch and the arena reach their size here
	restarted := testing.AllocsPerRun(50, func() { run(inst.Start, b) })
	fresh := testing.AllocsPerRun(50, func() { run(prog.Start, new(Batch)) })
	t.Logf("a run allocates %.0f objects restarted, %.0f started fresh", restarted, fresh)
	if restarted > 0 {
		t.Errorf("a restarted run allocates %.0f objects, want 0", restarted)
	}
}
