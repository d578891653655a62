package view

import (
	"fmt"
	"sort"

	"ojv/internal/algebra"
)

// This file is the plan checker ("plan ck"): a static verifier that proves
// a compiled maintenance plan well-formed before it runs. It re-derives the
// paper's structural invariants with independent algorithms — the normal
// form and maintenance graph via algebra.VerifyNormalForm /
// algebra.VerifyMaintGraph (§2.2, §2.3, §3.1, §6.2), the ΔV^D operator
// tree's shape under the §4 transform and the §4.1 left-deep conversion
// (λ/δ placement under rules 1, 4 and 5), the §6.1 simplification outcome,
// and the §5.3 per-parent base expressions behind each indirect cleanup.
//
// The checker runs after every plan build, so a bad plan fails the call that
// builds it and every random maintenance test doubles as a fuzzer of the
// planner. A plan is built once per table and contract (DDL recompiles its
// programs, not the plan), so the check costs nothing per statement.

// VerifyAllPlans compiles (or fetches from cache) and verifies the
// maintenance plan of every referenced table under both update contracts:
// plain insert/delete batches (fkOK) and decomposed modifies (the §6
// exclusions).
func (m *Maintainer) VerifyAllPlans() error {
	for _, t := range m.def.tables {
		seen := make(map[bool]bool, 2)
		for _, fkOK := range []bool{true, false} {
			eff := fkOK && !m.opts.DisableFKGraph
			if seen[eff] {
				continue
			}
			seen[eff] = true
			p, err := m.Plan(t, fkOK)
			if err != nil {
				return err
			}
			if err := m.VerifyPlan(p, eff); err != nil {
				return err
			}
		}
	}
	return nil
}

// VerifyPlan statically checks one compiled plan. fkOK must be the
// effective foreign-key contract the plan was built under (i.e. after the
// DisableFKGraph ablation was applied).
func (m *Maintainer) VerifyPlan(p *tablePlan, fkOK bool) error {
	if p == nil {
		return m.viol("3", "plan is nil")
	}
	wantNF := m.def.nf
	if !fkOK {
		wantNF = m.def.nfNoFK
	}
	if p.nf != wantNF {
		return m.viol("6.2", "plan for table %s is not built on the definition's normal form for fk=%v updates", p.table, fkOK)
	}
	if p.graph == nil || p.graph.NF != p.nf || p.graph.Updated != p.table {
		return m.viol("3.1", "plan's maintenance graph does not describe table %s over the plan's normal form", p.table)
	}
	var fks algebra.FKProvider
	if fkOK {
		fks = m.def.cat
	}
	if err := algebra.VerifyMaintGraph(p.graph, fks); err != nil {
		return fmt.Errorf("view %s: %w", m.def.Name, err)
	}
	if err := m.verifyPrimary(p, fkOK); err != nil {
		return err
	}
	return m.verifyIndirect(p)
}

// viol formats a section-numbered plan invariant violation.
func (m *Maintainer) viol(section, format string, args ...any) error {
	return fmt.Errorf("view %s: plan invariant violation (§%s): %s", m.def.Name, section, fmt.Sprintf(format, args...))
}

// verifyPrimary checks the ΔV^D expression: presence, operator-tree shape,
// and agreement with an independent re-run of the §4/§4.1/§6.1 pipeline.
func (m *Maintainer) verifyPrimary(p *tablePlan, fkOK bool) error {
	fkSimplify := fkOK && !m.opts.DisableFKSimplify
	if len(p.graph.DirectTerms()) == 0 {
		if p.primary != nil {
			return m.viol("4", "plan carries a primary delta but no term is directly affected")
		}
		return nil
	}
	if p.primary == nil && !fkSimplify {
		return m.viol("6.1", "primary delta is missing though FK simplification is off; only SimplifyTree may prove ΔV^D empty")
	}
	if p.primary != nil {
		if err := m.verifyPrimaryShape(p.primary, p.table, !m.opts.DisableLeftDeep); err != nil {
			return err
		}
	}
	// Recompute-and-compare: the cached tree must be exactly what the
	// transform pipeline produces (catches cache corruption and mutation of
	// shared trees; BuildPrimaryDelta clones, so this is side-effect free).
	rebuilt, err := BuildPrimaryDelta(m.def.cat, m.def.Expr, p.table, !m.opts.DisableLeftDeep, fkSimplify)
	if err != nil {
		return m.viol("4", "primary delta cannot be rebuilt: %v", err)
	}
	switch {
	case rebuilt == nil && p.primary != nil:
		return m.viol("6.1", "cached primary delta exists but SimplifyTree proves ΔV^D empty")
	case rebuilt != nil && p.primary == nil:
		return m.viol("6.1", "cached primary delta is empty but the §4 transform yields a plan")
	case rebuilt != nil && algebra.FormatTree(rebuilt) != algebra.FormatTree(p.primary):
		return m.viol("4.1", "cached primary delta differs from the §4 transform's output:\n%svs\n%s", algebra.FormatTree(p.primary), algebra.FormatTree(rebuilt))
	}
	return nil
}

// verifyPrimaryShape checks the ΔV^D operator tree structurally: allowed
// node set, a single delta leaf in leftmost position, main-path join kinds
// weakened per §4 step 2, and — in left-deep mode — λ/δ placed only as
// rules 1, 4 and 5 of §4.1 permit.
func (m *Maintainer) verifyPrimaryShape(e algebra.Expr, table string, leftDeep bool) error {
	leaf := e
descend:
	for {
		switch n := leaf.(type) {
		case *algebra.Select:
			leaf = n.Input
		case *algebra.NullIf:
			leaf = n.Input
		case *algebra.Condense:
			leaf = n.Input
		case *algebra.Join:
			leaf = n.Left
		default:
			break descend
		}
	}
	if d, ok := leaf.(*algebra.DeltaRef); !ok || d.Name != table {
		return m.viol("4", "ΔV^D must have Δ%s as its leftmost leaf, found %s", table, leaf)
	}
	deltas := 0
	var walk func(e, parent algebra.Expr, onSpine bool) error
	walk = func(e, parent algebra.Expr, onSpine bool) error {
		switch n := e.(type) {
		case *algebra.DeltaRef:
			deltas++
			if n.Name != table {
				return m.viol("4", "delta leaf Δ%s does not match the updated table %s", n.Name, table)
			}
			return nil
		case *algebra.TableRef:
			return nil
		case *algebra.Select:
			return walk(n.Input, e, onSpine)
		case *algebra.Join:
			switch n.Kind {
			case algebra.InnerJoin, algebra.LeftOuterJoin:
			case algebra.RightOuterJoin, algebra.FullOuterJoin:
				if leftDeep || onSpine {
					return m.viol("4", "%s join is not permitted on the ΔV^D main path (step 2 converts ro→join and fo→lo)", n.Kind)
				}
			default:
				return m.viol("4", "%s join is not an SPOJ operator", n.Kind)
			}
			if leftDeep && !isLeafish(n.Right) {
				return m.viol("4.1", "join right operand %T is not a base-table leaf; the tree is not left-deep", n.Right)
			}
			if err := walk(n.Left, e, onSpine); err != nil {
				return err
			}
			return walk(n.Right, e, false)
		case *algebra.NullIf:
			if !leftDeep {
				return m.viol("4.1", "λ appears in a bushy ΔV^D plan; only the left-deep conversion introduces it")
			}
			if _, ok := parent.(*algebra.Condense); !ok {
				return m.viol("4.1", "λ must sit directly under its condensing δ (rules 1, 4 and 5)")
			}
			// The λ body is a left outer join at creation; later passes may
			// rewrite it into a nested δλ stack when the body's own right
			// operand needed a rule 1/4/5 pull.
			switch in := n.Input.(type) {
			case *algebra.Join:
				if in.Kind != algebra.LeftOuterJoin {
					return m.viol("4.1", "λ must apply to a left outer join (rules 1, 4 and 5), found %s join", in.Kind)
				}
			case *algebra.Condense:
			default:
				return m.viol("4.1", "λ must apply to a left outer join or a nested δ (rules 1, 4 and 5), found %T", n.Input)
			}
			if _, isTrue := n.Unless.(algebra.TruePred); isTrue {
				return m.viol("4.1", "λ with a trivially true condition nulls nothing and must not be emitted")
			}
			if len(n.NullTables) == 0 {
				return m.viol("4.1", "λ must null at least one table")
			}
			return walk(n.Input, e, onSpine)
		case *algebra.Condense:
			if !leftDeep {
				return m.viol("4.1", "δ appears in a bushy ΔV^D plan; only the left-deep conversion introduces it")
			}
			ni, ok := n.Input.(*algebra.NullIf)
			if !ok {
				return m.viol("4.1", "δ must condense a λ output (rules 1, 4 and 5), found %T", n.Input)
			}
			bodySet := algebra.TableSet(ni.Input)
			nullSet := make(map[string]bool, len(ni.NullTables))
			for _, t := range ni.NullTables {
				if !bodySet[t] {
					return m.viol("4.1", "λ nulls table %s, which its input does not carry", t)
				}
				nullSet[t] = true
			}
			var keep []string
			for t := range bodySet {
				if !nullSet[t] {
					keep = append(keep, t)
				}
			}
			if len(keep) == 0 {
				return m.viol("4.1", "λ/δ would null every table of its input")
			}
			sort.Strings(keep)
			if want := termKeyCols(m.def.cat, keep); !colRefsEqual(n.GroupKey, want) {
				return m.viol("4.1", "δ group key %v does not cover exactly the keys of the preserved tables %v", n.GroupKey, keep)
			}
			return walk(n.Input, e, onSpine)
		default:
			return m.viol("4", "%T is not permitted in a ΔV^D plan", e)
		}
	}
	if err := walk(e, nil, true); err != nil {
		return err
	}
	if deltas != 1 {
		return m.viol("4", "ΔV^D must reference the delta exactly once, found %d references", deltas)
	}
	if leftDeep && !IsLeftDeep(e) {
		return m.viol("4.1", "plan tree is not left-deep")
	}
	return nil
}

func colRefsEqual(a, b []algebra.ColRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verifyIndirect checks the secondary-delta plans: exact coverage of the
// indirectly affected terms in larger-terms-first order, mask consistency,
// one §5.3 base expression per directly affected parent, and the shape of
// those expressions.
func (m *Maintainer) verifyIndirect(p *tablePlan) error {
	nf := p.nf
	graph := p.graph
	want := graph.IndirectTerms()
	if len(p.indirect) != len(want) {
		return m.viol("5.3", "plan cleans %d indirect terms, the maintenance graph has %d", len(p.indirect), len(want))
	}
	wantIdx := make(map[string]int, len(want))
	for _, ti := range want {
		wantIdx[nf.Terms[ti].SourceKey()] = ti
	}
	for i, ip := range p.indirect {
		if i > 0 && len(p.indirect[i-1].term.Tables) < len(ip.term.Tables) {
			return m.viol("5.2", "indirect cleanups must process larger terms first ({%s} before {%s}): a new orphan must be visible to later containment checks", ip.term.SourceKey(), p.indirect[i-1].term.SourceKey())
		}
		ti, ok := wantIdx[ip.term.SourceKey()]
		if !ok {
			return m.viol("5.3", "plan cleans term {%s}, which is not an indirectly affected term (or is cleaned twice)", ip.term.SourceKey())
		}
		delete(wantIdx, ip.term.SourceKey())
		if ip.tiMask != m.def.maskOf(ip.term.Tables) {
			return m.viol("5.3", "bitmask of term {%s} does not match its source set", ip.term.SourceKey())
		}
		direct := graph.DirectParents[ti]
		if len(ip.parents) != len(direct) || len(ip.parentMasks) != len(direct) {
			return m.viol("3.1", "term {%s} needs one base expression per directly affected parent: have %d, want %d", ip.term.SourceKey(), len(ip.parents), len(direct))
		}
		for k, pk := range direct {
			if ip.parentMasks[k] != m.def.maskOf(nf.Terms[pk].Tables) {
				return m.viol("5.3", "parent mask %d of term {%s} does not match parent {%s}", k, ip.term.SourceKey(), nf.Terms[pk].SourceKey())
			}
		}
		var extras uint32
		for _, pk := range graph.IndirectParents[ti] {
			extras |= m.def.maskOf(nf.Terms[pk].Tables) &^ ip.tiMask
		}
		if ip.indirectExtrasMask != extras {
			return m.viol("5.3", "Qi extra-table mask of term {%s} does not match its indirectly affected parents", ip.term.SourceKey())
		}
		for k, pb := range ip.parents {
			if err := m.verifyParentBase(ip.term, pb, graph.Updated, k); err != nil {
				return err
			}
		}
	}
	for key := range wantIdx {
		return m.viol("5.3", "indirectly affected term {%s} has no cleanup plan", key)
	}
	return nil
}

// verifyParentBase checks one parent's E'ip expressions (§5.3): inner-join
// trees over the parent's extra tables and exactly one reference to the
// updated table — its OLD state for insertions, current state for
// deletions — with no delta leaves.
func (m *Maintainer) verifyParentBase(term algebra.Term, pb parentBase, updated string, k int) error {
	check := func(e algebra.Expr, insert bool) error {
		kind := "deletion"
		if insert {
			kind = "insertion"
		}
		updatedRefs := 0
		var walk func(e algebra.Expr) error
		walk = func(e algebra.Expr) error {
			switch n := e.(type) {
			case *algebra.TableRef:
				if n.Name == updated {
					if insert {
						return m.viol("5.3", "%s cleanup of {%s} must read the pre-update state %sᵒ, not the current table", kind, term.SourceKey(), updated)
					}
					updatedRefs++
				}
				return nil
			case *algebra.OldTableRef:
				if n.Name != updated || !insert {
					return m.viol("5.3", "%s cleanup of {%s} must not read the pre-update state of %s", kind, term.SourceKey(), n.Name)
				}
				updatedRefs++
				return nil
			case *algebra.Select:
				return walk(n.Input)
			case *algebra.Join:
				if n.Kind != algebra.InnerJoin {
					return m.viol("5.3", "parent base expression %d of {%s} must use inner joins only, found %s", k, term.SourceKey(), n.Kind)
				}
				if err := walk(n.Left); err != nil {
					return err
				}
				return walk(n.Right)
			default:
				return m.viol("5.3", "%T is not permitted in a parent base expression", e)
			}
		}
		if e == nil {
			return m.viol("5.3", "parent base expression %d of {%s} is missing", k, term.SourceKey())
		}
		if err := walk(e); err != nil {
			return err
		}
		if updatedRefs != 1 {
			return m.viol("5.3", "parent base expression %d of {%s} must reference the updated table exactly once, found %d", k, term.SourceKey(), updatedRefs)
		}
		return nil
	}
	if err := check(pb.exprInsert, true); err != nil {
		return err
	}
	return check(pb.exprDelete, false)
}
