package exec

import (
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
