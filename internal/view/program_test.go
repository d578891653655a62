package view

import (
	"testing"

	"ojv/internal/exec"
	"ojv/internal/obs"
	"ojv/internal/rel"
)

// TestPlanProgramCachedUntilDDL pins the lifetime of a plan's compiled
// program: the same *exec.Program serves every run while the catalog's
// physical design stands, and the first Plan after DDL compiles a new one —
// in a new plan value, the old one stays intact for whoever holds it —
// while the logical plan (the ΔV^D expression) is never rebuilt.
func TestPlanProgramCachedUntilDDL(t *testing.T) {
	cat, m := newV1Maintainer(t, false, Options{Parallelism: 1})
	first, err := m.Plan("T", true)
	if err != nil {
		t.Fatal(err)
	}
	if first.Program() == nil {
		t.Fatal("V1 ΔT plan has no compiled program")
	}
	for i := 0; i < 100; i++ {
		runInsert(t, cat, m, "T", insertRowsFor(cat, "T", 1, int64(100+i), false))
		p, err := m.Plan("T", true)
		if err != nil {
			t.Fatal(err)
		}
		if p != first || p.Program() != first.Program() {
			t.Fatalf("run %d: plan or program replaced without DDL", i)
		}
	}
	if _, err := cat.CreateIndex("S", "S_sk_b", "sk", "b"); err != nil {
		t.Fatal(err)
	}
	after, err := m.Plan("T", true)
	if err != nil {
		t.Fatal(err)
	}
	if after.Program() == first.Program() {
		t.Fatal("CreateIndex did not recompile the plan's program")
	}
	if after.Program().Generation() != cat.DesignGeneration() || first.Program().Generation() == cat.DesignGeneration() {
		t.Fatalf("generations: old %d, new %d, catalog %d",
			first.Program().Generation(), after.Program().Generation(), cat.DesignGeneration())
	}
	if after.PrimaryExpr() != first.PrimaryExpr() {
		t.Fatal("DDL rebuilt the logical plan")
	}
	if again, _ := m.Plan("T", true); again != after {
		t.Fatal("recompiled plan was not cached")
	}
	runInsert(t, cat, m, "T", insertRowsFor(cat, "T", 3, 999, false))
	if err := Check(m); err != nil {
		t.Fatal(err)
	}
}

// TestProgramBoundAndUnboundRunsAlternate runs each view's one compiled
// program alternately with a Bound map (its cut nodes fed by a shared
// producer) and without (the whole tree started), in both delta
// directions: Start must bind per run and leave no trace of the previous
// binding. Both views stay equal to recomputation throughout.
func TestProgramBoundAndUnboundRunsAlternate(t *testing.T) {
	cat := mustRSTU(t, false)
	a := newNamedV1(t, cat, "va", false)
	b := newNamedV1(t, cat, "vb", false)
	views := []*Maintainer{a, b}
	planA, err := a.Plan("R", true)
	if err != nil {
		t.Fatal(err)
	}
	prog := planA.Program()

	step := func(round int, delta []rel.Row, isInsert, shared bool) {
		t.Helper()
		var run *SharedRun
		if shared {
			var err error
			if run, err = PlanShared(views, "R", isInsert, true, delta, nil, obs.NewRegistry()); err != nil {
				t.Fatal(err)
			}
			if run.Subtrees() == 0 {
				t.Fatal("identical views produced no shared run")
			}
		}
		for _, m := range views {
			cs := m.Begin()
			var stats *MaintStats
			var err error
			if isInsert {
				stats, err = m.ApplyInsert(cs, "R", delta, run.Bound(m))
			} else {
				stats, err = m.ApplyDelete(cs, "R", delta, run.Bound(m))
			}
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			m.CommitStaged(cs, stats)
		}
		if err := run.Close(); err != nil {
			t.Fatal(err)
		}
		for _, m := range views {
			if err := Check(m); err != nil {
				t.Fatalf("round %d (insert=%v shared=%v): %v", round, isInsert, shared, err)
			}
		}
	}
	for round := 0; round < 6; round++ {
		shared := round%2 == 0
		delta := insertRowsFor(cat, "R", 4, int64(50+round), false)
		if err := cat.Insert("R", delta); err != nil {
			t.Fatal(err)
		}
		step(round, delta, true, shared)
		keys := make([][]rel.Value, len(delta))
		for i, row := range delta {
			keys[i] = row.Project(cat.Table("R").KeyCols())
		}
		deleted, err := cat.Delete("R", keys[:2])
		if err != nil {
			t.Fatal(err)
		}
		// The delete runs the other way round, so each direction sees both
		// bindings.
		step(round, deleted, false, !shared)
	}
	if p, _ := a.Plan("R", true); p.Program() != prog {
		t.Fatal("the plan's program was replaced between runs")
	}
}

// TestSharedProducerStartsCompiledSubtree: the producer PlanShared starts —
// the sub-node the first occurrence's plan already compiled — streams the
// rows a fresh compile of the shared subtree streams.
func TestSharedProducerStartsCompiledSubtree(t *testing.T) {
	cat := mustRSTU(t, false)
	a := newNamedV1(t, cat, "va", false)
	b := newNamedV1(t, cat, "vb", false)
	delta := insertRowsFor(cat, "R", 6, 7, false)
	if err := cat.Insert("R", delta); err != nil {
		t.Fatal(err)
	}
	dag, err := sharedDAG([]*Maintainer{a, b}, "R", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(dag) == 0 {
		t.Fatal("no shared subtree")
	}
	for _, st := range dag {
		sub := st.occ[0].prog.Sub(st.expr)
		if sub == nil {
			t.Fatalf("shared subtree %s is not an operator of the first occurrence's program", st.key)
		}
		ctx := &exec.Context{
			Catalog:       cat,
			Deltas:        map[string][]rel.Row{"R": delta},
			DeltaIsInsert: true,
			Parallelism:   1,
		}
		got, _, err := evalCounted(ctx, sub)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.Eval(ctx, st.expr)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) == 0 {
			t.Fatal("degenerate case: the shared subtree produced no rows")
		}
		if got.Schema.String() != want.Schema.String() {
			t.Fatalf("schema %s, fresh compile %s", got.Schema, want.Schema)
		}
		if err := sameMultiset(got, want); err != nil {
			t.Fatalf("producer differs from a fresh compile of %s: %v", st.key, err)
		}
	}
}
