package view

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/fixture"
	"ojv/internal/obs"
	"ojv/internal/rel"
)

// newNamedV1 builds a maintainer named name over cat with the V1 shape.
func newNamedV1(t *testing.T, cat *rel.Catalog, name string, withFK bool) *Maintainer {
	t.Helper()
	def, err := Define(cat, name, fixture.V1Expr(withFK), fixture.V1Output(cat))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(def, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCollectShareable pins the shareable-node rule on a real plan: every
// node is an inner node, contains the Δ scan, carries its String() as key,
// and the set is non-empty for a multi-join view.
func TestCollectShareable(t *testing.T) {
	cat := mustRSTU(t, false)
	m := newNamedV1(t, cat, "v1", false)
	plan, err := m.Plan("R", true)
	if err != nil {
		t.Fatal(err)
	}
	if plan.primary == nil {
		t.Fatal("V1 ΔR plan has no primary")
	}
	if len(plan.shared) == 0 {
		t.Fatal("no shareable nodes in a four-table plan")
	}
	containsDelta := func(e algebra.Expr) bool {
		found := false
		var walk func(algebra.Expr)
		walk = func(x algebra.Expr) {
			if _, ok := x.(*algebra.DeltaRef); ok {
				found = true
			}
			for _, c := range x.Children() {
				walk(c)
			}
		}
		walk(e)
		return found
	}
	for _, n := range plan.shared {
		if len(n.expr.Children()) == 0 {
			t.Errorf("leaf %s marked shareable", n.key)
		}
		if !containsDelta(n.expr) {
			t.Errorf("shareable node without Δ scan: %s", n.key)
		}
		if n.key != n.expr.String() {
			t.Errorf("key %q != String() %q", n.key, n.expr.String())
		}
		if plan.sharedKeys[n.expr] != n.key {
			t.Errorf("sharedKeys index misses node %s", n.key)
		}
	}
}

// TestSharedDAGIdenticalViews: two structurally identical views share their
// whole primary tree — the cut is maximal, so the DAG is a single subtree
// with one occurrence per view.
func TestSharedDAGIdenticalViews(t *testing.T) {
	cat := mustRSTU(t, false)
	a := newNamedV1(t, cat, "va", false)
	b := newNamedV1(t, cat, "vb", false)
	dag, err := sharedDAG([]*Maintainer{a, b}, "R", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(dag) != 1 {
		t.Fatalf("identical views: got %d subtrees, want 1 (maximal cut)", len(dag))
	}
	st := dag[0]
	if len(st.occ) != 2 {
		t.Fatalf("fan-out %d, want 2", len(st.occ))
	}
	planA, err := a.Plan("R", true)
	if err != nil {
		t.Fatal(err)
	}
	if st.key != planA.primary.String() {
		t.Fatalf("shared subtree is not the whole primary:\n got %s\nwant %s", st.key, planA.primary.String())
	}
	named, err := SharedDAG([]*Maintainer{a, b}, "R", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(named) != 1 || fmt.Sprint(named[0].Views) != "[va vb]" {
		t.Fatalf("SharedDAG views = %v", named)
	}
}

// TestSharedDAGNoOverlap: when only one view references the updated table
// there is nothing to share, and the DAG is empty.
func TestSharedDAGNoOverlap(t *testing.T) {
	cat := mustRSTU(t, false)
	a := newNamedV1(t, cat, "va", false)
	defRS, err := Define(cat, "vrs",
		&algebra.Join{Kind: algebra.FullOuterJoin,
			Left:  &algebra.TableRef{Name: "R"},
			Right: &algebra.TableRef{Name: "S"},
			Pred:  algebra.Eq("R", "b", "S", "b")},
		fixture.AllColumns(cat, "R", "S"))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewMaintainer(defRS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Materialize(); err != nil {
		t.Fatal(err)
	}
	// T is referenced only by va: fewer than two participants, no DAG.
	dag, err := sharedDAG([]*Maintainer{a, rs}, "T", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(dag) != 0 {
		t.Fatalf("T update shared across 1 view: %d subtrees", len(dag))
	}
}

// TestPlanSharedMaintainsIdentically drives two identical views through
// one shared run and checks (a) both end bit-identical to a per-view
// maintained twin, (b) the producer row count equals each consumer's,
// published through the view.shared.* counters.
func TestPlanSharedMaintainsIdentically(t *testing.T) {
	cat := mustRSTU(t, false)
	a := newNamedV1(t, cat, "va", false)
	b := newNamedV1(t, cat, "vb", false)
	ref := newNamedV1(t, cat, "ref", false)

	delta := insertRowsFor(cat, "R", 6, 42, false)
	if err := cat.Insert("R", delta); err != nil {
		t.Fatal(err)
	}

	metrics := obs.NewRegistry()
	run, err := PlanShared([]*Maintainer{a, b}, "R", true, true, delta, nil, metrics)
	if err != nil {
		t.Fatal(err)
	}
	if run.Subtrees() == 0 {
		t.Fatal("identical views produced no shared run")
	}
	for _, m := range []*Maintainer{a, b} {
		cs := m.Begin()
		stats, err := m.ApplyInsert(cs, "R", delta, run.Bound(m))
		if err != nil {
			t.Fatal(err)
		}
		m.CommitStaged(cs, stats)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}

	csRef := ref.Begin()
	stats, err := ref.ApplyInsert(csRef, "R", delta, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref.CommitStaged(csRef, stats)

	fingerprint := func(m *Maintainer) string {
		rows := m.Materialized().Rows()
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.String()
		}
		sort.Strings(out)
		return strings.Join(out, "\n")
	}
	want := fingerprint(ref)
	for _, m := range []*Maintainer{a, b} {
		if got := fingerprint(m); got != want {
			t.Fatalf("view %s diverged from per-view twin", m.def.Name)
		}
		if err := Check(m); err != nil {
			t.Fatal(err)
		}
	}

	snap := metrics.Snapshot()
	produced := snap["view.shared.rows.producer"]
	consumed := snap["view.shared.rows.consumer"]
	saved := snap["view.shared.rows.saved"]
	if produced == 0 {
		t.Fatal("producer served no rows")
	}
	if consumed != produced+saved {
		t.Fatalf("Σ consumer %d != producer %d + saved %d", consumed, produced, saved)
	}
	if snap["view.shared.subtrees"] != int64(run.Subtrees()) {
		t.Fatalf("subtrees counter %d != run %d", snap["view.shared.subtrees"], run.Subtrees())
	}
	if snap["view.shared.views"] != 2 {
		t.Fatalf("views counter %d != 2", snap["view.shared.views"])
	}
}
