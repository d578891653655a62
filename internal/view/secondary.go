package view

import (
	"ojv/internal/algebra"
	"ojv/internal/exec"
	"ojv/internal/rel"
)

// secondaryFromView computes and applies ΔDi for one indirect term after a
// deletion, using the view and the primary delta (Section 5.2):
// (δ πTi.* σPi ΔV^D) ⋉la_eq(Ti) (V−ΔV^D) — projections of deleted parent
// tuples that are no longer contained in any view row become new orphans and
// are inserted. It returns the number of orphan rows added. deleted holds the
// full-width ΔV^D rows; the plan's witness, keyCols and outCols say where a
// row's term pattern, view key and output columns sit in them.
func (m *Maintainer) secondaryFromView(cs *Changeset, plan *tablePlan, ip *indirectPlan, deleted []rel.Row) (int, error) {
	mv := m.mv
	n := 0
	// A candidate is identified by the view key its orphan row would have;
	// the term tables' keys it must not be contained under are parts of
	// that key.
	seen := make(map[string]bool)
	var buf []byte
	for _, row := range deleted {
		pat := patternAt(row, plan.witness)
		if !anyMaskSubset(ip.parentMasks, pat) {
			continue
		}
		// Skip rows that are non-null on extras of an indirectly affected
		// parent (the n(∪Rk) part of Qi, Section 5.3): the projected tuple
		// is then subsumed by a sibling term's tuple — that term's own
		// cleanup owns it — and must not be considered a new-orphan
		// candidate here.
		if pat&ip.indirectExtrasMask != 0 {
			continue
		}
		buf = mv.appendKey(buf[:0], row, plan.keyCols, ip.tiMask)
		if seen[string(buf)] {
			continue
		}
		key := string(buf)
		seen[key] = true
		if mv.containsTuple(ip.tiMask, key) {
			continue
		}
		orphan := make(rel.Row, len(mv.schema))
		for i, t := range mv.colTable {
			if ip.tiMask&(1<<uint(t)) != 0 {
				orphan[i] = row[plan.outCols[i]]
			}
		}
		if err := cs.insertRow("secondary-orphan-insert", key, orphan); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// secondaryInsertCombined performs the insertion-case view-side cleanup
// (Section 5.2) for every indirect term in one pass over the primary delta:
// σ nn(Ti)∧n(Si) (V+ΔV^D) ⋉ls_eq(Ti) σPi ΔV^D — every current orphan of a
// term that joins (on the term's key) a delta row belonging to a directly
// affected parent ceases to be an orphan and is deleted. The view's key
// structure turns the semijoin into point lookups: the orphan's view key is
// fully determined by the delta row's Ti key values. Each delta row's
// non-null pattern is computed once and tested against every term's parent
// masks; orphan deletions are keyed and idempotent, so term order is
// irrelevant.
func (m *Maintainer) secondaryInsertCombined(cs *Changeset, plans []*indirectPlan, projected []rel.Row) (map[string]int, error) {
	mv := m.mv
	counts := make(map[string]int, len(plans))
	var key []byte
	for _, pr := range projected {
		pat := mv.pattern(pr)
		for _, ip := range plans {
			if !anyMaskSubset(ip.parentMasks, pat) {
				continue
			}
			key = mv.appendKey(key[:0], pr, mv.keyCols, ip.tiMask)
			_, ok, err := cs.deleteKey("secondary-orphan-delete", key)
			if err != nil {
				return counts, err
			}
			if ok {
				counts[ip.term.SourceKey()]++
			}
		}
	}
	return counts, nil
}

// patternAt computes the non-null table bitmask of a ΔV^D row: table i of
// the view owns bit i and is non-null iff its witness column (−1: the table
// is not in ΔV^D) is.
func patternAt(row rel.Row, witness []int) uint32 {
	var pat uint32
	for i, w := range witness {
		if w >= 0 && !row[w].IsNull() {
			pat |= 1 << uint(i)
		}
	}
	return pat
}

// anyMaskSubset reports whether pat contains all bits of any mask.
func anyMaskSubset(masks []uint32, pat uint32) bool {
	for _, m := range masks {
		if pat&m == m {
			return true
		}
	}
	return false
}

// fromBaseTerm is the compiled Section 5.3 candidate computation for one
// indirect term: where the term's columns sit in the ΔV^D schema (every
// table's null witness is the plan's), and one probe-chain program per
// directly affected parent and update direction. A nil *fromBaseTerm means a table of the
// term was pruned from ΔV^D by foreign-key simplification, so no candidate
// can exist.
type fromBaseTerm struct {
	// tiCols are the ΔV^D positions of the term tables' columns — the
	// candidate projection, with schema candSchema; tiKeyCols are the
	// candidate positions of the term tables' key columns (the δ key).
	tiCols, tiKeyCols []int
	candSchema        rel.Schema
	parents           []parentPrograms
	// How a candidate becomes a view row: keyCols[i] are the candidate
	// positions of view table i's key columns (nil outside the term), and,
	// for a stored (non-aggregated) view, orphanCols[c] is the candidate
	// position of output column c (−1: NULL in the orphan).
	keyCols    [][]int
	orphanCols []int
}

// parentPrograms are the instances of the probe chains (see probeChain) of
// the candidates, bound as candRel, against one parentBase's E'ip:
// exprInsert after an insertion, exprDelete after a deletion.
type parentPrograms struct{ insert, delete *exec.Instance }

// candRel names the candidate relation inside the Section 5.3 probe chains.
const candRel = "__cand"

// witnessCols resolves, per view table, a key column of the table within a
// ΔV^D schema (−1 when the table is absent from it).
func (m *Maintainer) witnessCols(delta rel.Schema) []int {
	witness := make([]int, len(m.def.tables))
	for i, t := range m.def.tables {
		witness[i] = -1
		tab := m.def.cat.Table(t)
		if kc := tab.KeyCols(); len(kc) > 0 {
			witness[i] = delta.IndexOf(t, tab.Schema()[kc[0]].Name)
		}
	}
	return witness
}

// compileFromBase resolves one indirect term against the ΔV^D schema and
// compiles its parents' probe chains.
func (m *Maintainer) compileFromBase(ip *indirectPlan, delta rel.Schema, witness []int) (*fromBaseTerm, error) {
	inTerm := func(table string) bool {
		i := m.def.tablePos(table)
		return i >= 0 && ip.tiMask&(1<<uint(i)) != 0
	}
	for i, t := range m.def.tables {
		if inTerm(t) && witness[i] < 0 {
			return nil, nil
		}
	}
	fb := &fromBaseTerm{}
	for i, c := range delta {
		if inTerm(c.Table) {
			fb.tiCols = append(fb.tiCols, i)
		}
	}
	fb.candSchema = delta.Project(fb.tiCols)
	if m.mv != nil {
		fb.orphanCols = outputMapping(fb.candSchema, m.mv.schema)
	}
	fb.keyCols = make([][]int, len(m.def.tables))
	for _, t := range ip.term.Tables {
		tab := m.def.cat.Table(t)
		i := m.def.tablePos(t)
		for _, kc := range tab.KeyCols() {
			c := fb.candSchema.MustIndexOf(t, tab.Schema()[kc].Name)
			fb.tiKeyCols = append(fb.tiKeyCols, c)
			fb.keyCols[i] = append(fb.keyCols[i], c)
		}
	}
	rels := map[string]rel.Schema{candRel: fb.candSchema}
	chain := func(evidence algebra.Expr, qip algebra.Pred) (*exec.Instance, error) {
		prog, err := exec.Compile(m.def.cat, rels, probeChain(&algebra.RelRef{Name: candRel, TableNames: ip.term.Tables}, evidence, qip))
		if err != nil {
			return nil, err
		}
		return prog.Instance(), nil
	}
	fb.parents = make([]parentPrograms, len(ip.parents))
	for k, pb := range ip.parents {
		var err error
		if fb.parents[k].insert, err = chain(pb.exprInsert, pb.qip); err != nil {
			return nil, err
		}
		if fb.parents[k].delete, err = chain(pb.exprDelete, pb.qip); err != nil {
			return nil, err
		}
	}
	return fb, nil
}

// probeChain rewrites the anti-join cand ▷_qip E'ip as the join whose
// complement it is: cand joined to E'ip's leaves one at a time, in the order
// buildJoinTree connects them, under qip and E'ip's own predicates, the last
// join a semi-join. A candidate survives iff the chain emits no row for it
// (survivors). Every join of the chain has a base table on its right, so it
// probes an index (one CreateView arranged), where an anti-join against an
// E'ip of several tables would hash-build the whole of E'ip for every run;
// the last join stops at a row's first match, as the anti-join did, so over
// a one-table E'ip the chain is the anti-join's index probe, emitting the
// dismissed candidates instead of the survivors. A probe chain emits, per
// candidate, every match of its leaves but the last (DESIGN.md §9).
func probeChain(cand, evidence algebra.Expr, qip algebra.Pred) algebra.Expr {
	leaves := []algebra.Expr{cand}
	conj := algebra.Conjuncts(qip)
	var walk func(e algebra.Expr)
	walk = func(e algebra.Expr) {
		switch n := e.(type) {
		case *algebra.Join:
			conj = append(conj, algebra.Conjuncts(n.Pred)...)
			walk(n.Left)
			walk(n.Right)
		case *algebra.Select:
			if isLeafish(n) {
				leaves = append(leaves, n)
				return
			}
			conj = append(conj, algebra.Conjuncts(n.Pred)...)
			walk(n.Input)
		default:
			leaves = append(leaves, e)
		}
	}
	walk(evidence)
	tree := buildJoinTree(leaves, conj)
	if j, ok := tree.(*algebra.Join); ok {
		j.Kind = algebra.SemiJoin
	}
	return tree
}

// secondaryCandidatesFromBase computes the surviving ΔDi candidates for one
// indirect term from base tables and the primary delta (Section 5.3),
// reading the updated table as ctx binds it: after an insertion (the old
// state) when its delta is an insert, after a deletion otherwise. The
// returned relation carries all columns of the term's source tables.
func secondaryCandidatesFromBase(ctx *exec.Context, plan *tablePlan, ip *indirectPlan, fb *fromBaseTerm, primary exec.Relation) (exec.Relation, error) {
	if fb == nil {
		return exec.Relation{}, nil
	}
	// Qi: real on the term's tables, null on the extras of indirectly
	// affected parents; then δ πTi.*. Table i of the view owns pattern bit i.
	seen := make(map[string]bool)
	cand := exec.Relation{Schema: fb.candSchema}
	for _, row := range primary.Rows {
		pat := patternAt(row, plan.witness)
		if pat&ip.tiMask != ip.tiMask || pat&ip.indirectExtrasMask != 0 {
			continue
		}
		c := row.Project(fb.tiCols)
		k := rel.EncodeRowCols(c, fb.tiKeyCols)
		if seen[k] {
			continue
		}
		seen[k] = true
		cand.Rows = append(cand.Rows, c)
	}
	if len(cand.Rows) == 0 {
		return cand, nil
	}

	// Anti-join the candidates against every directly affected parent's
	// E'ip: a candidate survives only if no parent evidence contains it.
	// Each probe chain runs as a batch pipeline: the candidates stream
	// through its index probes, its output names the dismissed candidates by
	// their δ key, and a parent that eliminates every candidate
	// short-circuits the remaining parents entirely.
	for _, pp := range fb.parents {
		run := pp.delete
		if ctx.DeltaIsInsert {
			run = pp.insert
		}
		sub := &exec.Context{
			Catalog:       ctx.Catalog,
			DeltaTable:    ctx.DeltaTable,
			Delta:         ctx.Delta,
			DeltaIsInsert: ctx.DeltaIsInsert,
			Rels:          map[string]exec.Relation{candRel: cand},
			Metrics:       ctx.Metrics,
		}
		dismissed, _, err := evalCounted(sub, run)
		if err != nil {
			return exec.Relation{}, err
		}
		if cand = survivors(cand, dismissed.Rows, fb.tiKeyCols); len(cand.Rows) == 0 {
			break
		}
	}
	return cand, nil
}

// survivors returns the candidates whose δ key no dismissed row — a probe
// chain's output, which starts with the candidate's columns — carries.
func survivors(cand exec.Relation, dismissed []rel.Row, keyCols []int) exec.Relation {
	if len(dismissed) == 0 {
		return cand
	}
	hit := make(map[string]bool, len(dismissed))
	for _, r := range dismissed {
		hit[rel.EncodeRowCols(r, keyCols)] = true
	}
	out := exec.Relation{Schema: cand.Schema}
	for _, c := range cand.Rows {
		if !hit[rel.EncodeRowCols(c, keyCols)] {
			out.Rows = append(out.Rows, c)
		}
	}
	return out
}

// applySecondaryFromBase applies one term's precomputed ΔDi candidates to
// the stored view: prior orphans are deleted after an insertion, new orphans
// are inserted after a deletion. Unlike candidate computation, application
// mutates the view and must run serially, in plan order.
func (m *Maintainer) applySecondaryFromBase(cs *Changeset, ip *indirectPlan, fb *fromBaseTerm, cand exec.Relation, isInsert bool) (int, error) {
	if len(cand.Rows) == 0 {
		return 0, nil
	}
	mv := m.mv
	n := 0
	var buf []byte
	for _, c := range cand.Rows {
		buf = mv.appendKey(buf[:0], c, fb.keyCols, ip.tiMask)
		if isInsert {
			_, ok, err := cs.deleteKey("frombase-orphan-delete", buf)
			if err != nil {
				return n, err
			}
			if ok {
				n++
			}
			continue
		}
		// Deletion: insert the new orphan built from the candidate.
		if err := cs.insertRow("frombase-orphan-insert", string(buf), projectRow(c, fb.orphanCols)); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
