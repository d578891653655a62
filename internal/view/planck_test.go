package view

import (
	"strings"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/fixture"
	"ojv/internal/tpch"
)

// TestVerifyAllPlansExampleViews runs the plan checker over every built-in
// example view under every ablation and strategy the Options struct offers:
// all compiled plans must satisfy the paper's invariants at every setting.
func TestVerifyAllPlansExampleViews(t *testing.T) {
	for name, opts := range optionMatrix() {
		for _, withFK := range []bool{false, true} {
			_, m := newV1Maintainer(t, withFK, opts)
			if err := m.VerifyAllPlans(); err != nil {
				t.Errorf("v1 fk=%v %s: %v", withFK, name, err)
			}
			cat, err := fixture.COL(fixture.COLOptions{Seed: 5, WithFK: withFK})
			if err != nil {
				t.Fatal(err)
			}
			def, err := Define(cat, "v2", fixture.V2Expr(), fixture.V2Output(cat))
			if err != nil {
				t.Fatal(err)
			}
			m2, err := NewMaintainer(def, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := m2.VerifyAllPlans(); err != nil {
				t.Errorf("v2 fk=%v %s: %v", withFK, name, err)
			}
		}
	}
}

// TestVerifyAllPlansTPCH checks the experimental-section views: the
// many-table left-deep plans with λ/δ operators and FK-reduced graphs.
func TestVerifyAllPlansTPCH(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{ScaleFactor: 0.0005, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]algebra.Expr{
		"v3":     tpch.V3Expr(),
		"core":   tpch.V3CoreExpr(),
		"ojview": tpch.OJViewExpr(),
	}
	ablations := []Options{
		{},
		{DisableLeftDeep: true},
		{DisableFKGraph: true, DisableFKSimplify: true},
	}
	for name, expr := range views {
		def, err := Define(db.Catalog, name, expr, fixture.RandOutput(db.Catalog, expr))
		if err != nil {
			t.Fatal(err)
		}
		for i, opts := range ablations {
			m, err := NewMaintainer(def, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.VerifyAllPlans(); err != nil {
				t.Errorf("%s ablation %d: %v", name, i, err)
			}
		}
	}
}

// TestAggAutoCleansUpFromBase: an aggregation view stores group rows, not
// SPOJ rows, so under StrategyAuto its plans compile the §5.3 from-base
// cleanup for every indirect term, as StrategyFromBase does.
func TestAggAutoCleansUpFromBase(t *testing.T) {
	cat, err := fixture.COL(fixture.COLOptions{Seed: 11, WithFK: false})
	if err != nil {
		t.Fatal(err)
	}
	def, err := DefineAggregate(cat, "v2agg", fixture.V2Expr(), v2AggSpec())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(def, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Plan("O", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.indirect) == 0 || len(p.fromBase) != len(p.indirect) {
		t.Fatalf("%d indirect terms, %d from-base cleanups; want as many, and some", len(p.indirect), len(p.fromBase))
	}
}

// clonePlan shallow-copies a cached plan so mutations never leak back into
// the maintainer's plan cache.
func clonePlan(p *tablePlan) *tablePlan {
	cp := *p
	cp.indirect = append([]*indirectPlan(nil), p.indirect...)
	return &cp
}

func findCondense(e algebra.Expr) *algebra.Condense {
	switch n := e.(type) {
	case *algebra.Condense:
		return n
	case *algebra.NullIf:
		return findCondense(n.Input)
	case *algebra.Select:
		return findCondense(n.Input)
	case *algebra.Join:
		if c := findCondense(n.Left); c != nil {
			return c
		}
		return findCondense(n.Right)
	}
	return nil
}

// dropFirstCondense splices the first δ out of the tree, leaving its λ
// input in place.
func dropFirstCondense(e algebra.Expr) (algebra.Expr, bool) {
	switch n := e.(type) {
	case *algebra.Condense:
		return n.Input, true
	case *algebra.NullIf:
		if in, ok := dropFirstCondense(n.Input); ok {
			n.Input = in
			return n, true
		}
	case *algebra.Select:
		if in, ok := dropFirstCondense(n.Input); ok {
			n.Input = in
			return n, true
		}
	case *algebra.Join:
		if l, ok := dropFirstCondense(n.Left); ok {
			n.Left = l
			return n, true
		}
		if r, ok := dropFirstCondense(n.Right); ok {
			n.Right = r
			return n, true
		}
	}
	return e, false
}

// swapFirstJoin commutes the inputs of the outermost join, moving the delta
// leaf off the leftmost position.
func swapFirstJoin(e algebra.Expr) bool {
	switch n := e.(type) {
	case *algebra.Join:
		n.Left, n.Right = n.Right, n.Left
		return true
	case *algebra.Select:
		return swapFirstJoin(n.Input)
	case *algebra.NullIf:
		return swapFirstJoin(n.Input)
	case *algebra.Condense:
		return swapFirstJoin(n.Input)
	}
	return false
}

func wantViol(t *testing.T, err error, section string) {
	t.Helper()
	if err == nil {
		t.Fatal("corruption was not rejected")
	}
	if !strings.Contains(err.Error(), section) {
		t.Fatalf("rejection %q does not cite %s", err, section)
	}
}

// condensePlan builds a view whose update-T plan exercises rules 4/5 of
// §4.1 — T lo (S ro R) with the main-path predicate on S — so the primary
// delta carries a λ/δ pair for the δ-dropping and group-key mutations.
func condensePlan(t *testing.T) (*Maintainer, *tablePlan) {
	t.Helper()
	cat := mustRSTU(t, false)
	expr := &algebra.Join{
		Kind: algebra.LeftOuterJoin,
		Left: &algebra.TableRef{Name: "T"},
		Right: &algebra.Join{
			Kind: algebra.RightOuterJoin, Left: &algebra.TableRef{Name: "S"}, Right: &algebra.TableRef{Name: "R"},
			Pred: algebra.Eq("S", "b", "R", "b"),
		},
		Pred: algebra.Eq("T", "c", "S", "b"),
	}
	def, err := Define(cat, "vcond", expr, fixture.AllColumns(cat, "R", "S", "T"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(def, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Plan("T", false)
	if err != nil {
		t.Fatal(err)
	}
	if p.primary == nil || findCondense(p.primary) == nil {
		t.Fatal("the update-T plan of T lo (S ro R) must contain a δ operator")
	}
	return m, p
}

// TestVerifyPlanMutations corrupts compiled plans the way a planner bug
// would and checks each corruption is rejected with the paper section it
// violates: a dropped δ, swapped join inputs, a removed direct parent, and
// the bookkeeping around them.
func TestVerifyPlanMutations(t *testing.T) {
	_, m := newV1Maintainer(t, false, Options{})
	plain, err := m.Plan("T", false)
	if err != nil {
		t.Fatal(err)
	}
	if plain.primary == nil || len(plain.indirect) == 0 {
		t.Fatal("the V1 update-T plan must have primary and indirect parts")
	}

	t.Run("nil plan", func(t *testing.T) {
		wantViol(t, m.VerifyPlan(nil, false), "§3")
	})
	t.Run("foreign normal form", func(t *testing.T) {
		cp := clonePlan(plain)
		cp.nf = m.def.nf // the fk=false plan must build on nfNoFK
		wantViol(t, m.VerifyPlan(cp, false), "§6.2")
	})
	t.Run("dropped maintenance graph", func(t *testing.T) {
		cp := clonePlan(plain)
		cp.graph = nil
		wantViol(t, m.VerifyPlan(cp, false), "§3.1")
	})
	t.Run("missing primary delta", func(t *testing.T) {
		cp := clonePlan(plain)
		cp.primary = nil
		wantViol(t, m.VerifyPlan(cp, false), "§6.1")
	})
	t.Run("swapped join inputs", func(t *testing.T) {
		cp := clonePlan(plain)
		cp.primary = algebra.CloneExpr(plain.primary)
		if !swapFirstJoin(cp.primary) {
			t.Fatal("primary delta has no join to swap")
		}
		wantViol(t, m.VerifyPlan(cp, false), "§4")
	})
	t.Run("extra operator on primary", func(t *testing.T) {
		cp := clonePlan(plain)
		cp.primary = &algebra.Select{Input: algebra.CloneExpr(plain.primary), Pred: algebra.TruePred{}}
		wantViol(t, m.VerifyPlan(cp, false), "§4.1")
	})
	t.Run("dropped condense", func(t *testing.T) {
		mc, p := condensePlan(t)
		cp := clonePlan(p)
		pr, ok := dropFirstCondense(algebra.CloneExpr(p.primary))
		if !ok {
			t.Fatal("no δ to drop")
		}
		cp.primary = pr
		wantViol(t, mc.VerifyPlan(cp, false), "§4")
	})
	t.Run("corrupted condense group key", func(t *testing.T) {
		mc, p := condensePlan(t)
		cp := clonePlan(p)
		cp.primary = algebra.CloneExpr(p.primary)
		ck := findCondense(cp.primary)
		ck.GroupKey = ck.GroupKey[:len(ck.GroupKey)-1]
		wantViol(t, mc.VerifyPlan(cp, false), "§4.1")
	})
	t.Run("dropped indirect cleanup", func(t *testing.T) {
		cp := clonePlan(plain)
		cp.indirect = cp.indirect[:len(cp.indirect)-1]
		wantViol(t, m.VerifyPlan(cp, false), "§5.3")
	})
	t.Run("reordered indirect cleanups", func(t *testing.T) {
		cp := clonePlan(plain)
		found := false
		for i := 1; i < len(cp.indirect); i++ {
			if len(cp.indirect[i].term.Tables) != len(cp.indirect[0].term.Tables) {
				cp.indirect[0], cp.indirect[i] = cp.indirect[i], cp.indirect[0]
				found = true
				break
			}
		}
		if !found {
			t.Skip("indirect terms all have the same size; order is unobservable")
		}
		wantViol(t, m.VerifyPlan(cp, false), "§5.2")
	})
	t.Run("foreign cleanup term", func(t *testing.T) {
		cp := clonePlan(plain)
		ip := *cp.indirect[0]
		ip.term = plain.nf.Terms[0] // the top term is directly affected
		cp.indirect[0] = &ip
		wantViol(t, m.VerifyPlan(cp, false), "§5.3")
	})
	t.Run("removed direct parent cleanup", func(t *testing.T) {
		cp := clonePlan(plain)
		ip := *cp.indirect[0]
		if len(ip.parents) == 0 {
			t.Fatal("indirect cleanup must have a parent expression")
		}
		ip.parents = append([]parentBase(nil), ip.parents[:len(ip.parents)-1]...)
		cp.indirect[0] = &ip
		wantViol(t, m.VerifyPlan(cp, false), "§3.1")
	})
	t.Run("corrupted parent mask", func(t *testing.T) {
		cp := clonePlan(plain)
		ip := *cp.indirect[0]
		ip.parentMasks = append([]uint32(nil), ip.parentMasks...)
		ip.parentMasks[0] ^= 1 << 30
		cp.indirect[0] = &ip
		wantViol(t, m.VerifyPlan(cp, false), "§5.3")
	})
	t.Run("insert cleanup reads current state", func(t *testing.T) {
		cp := clonePlan(plain)
		ip := *cp.indirect[0]
		ip.parents = append([]parentBase(nil), ip.parents...)
		ip.parents[0].exprInsert = &algebra.TableRef{Name: "T"}
		cp.indirect[0] = &ip
		wantViol(t, m.VerifyPlan(cp, false), "§5.3")
	})
}
