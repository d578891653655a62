package view

import (
	"fmt"

	"ojv/internal/algebra"
	"ojv/internal/exec"
	"ojv/internal/obs"
	"ojv/internal/rel"
)

// AggMaterialized stores an aggregation view (Section 3.3): the groups of
// the SPOJ core with self-maintainable aggregates. Each group keeps a
// regular row count, a not-null count for every table that is null-extended
// in some normal-form term, and per-aggregate (sum, not-null count)
// accumulators, which is exactly the bookkeeping the paper prescribes:
// groups whose row count reaches zero are removed, and an aggregate whose
// inputs all disappear goes to NULL.
type AggMaterialized struct {
	def  *Definition
	opts Options

	schema         rel.Schema
	nullableTables []string
	groups         map[string]*aggGroup
	// dirtyGroups tracks group keys touched since the last epoch publish;
	// nil until the maintainer enables snapshots (see epoch.go).
	dirtyGroups map[string]struct{}
}

type aggGroup struct {
	key      rel.Row
	rowCount int64
	nnTable  []int64 // aligned with nullableTables
	aggs     []aggAcc
}

type aggAcc struct {
	sum     rel.Value
	nonNull int64
}

// clone deep-copies a group for the changeset undo log (values are
// immutable, so copying the slices suffices).
func (g *aggGroup) clone() *aggGroup {
	return &aggGroup{
		key:      append(rel.Row(nil), g.key...),
		rowCount: g.rowCount,
		nnTable:  append([]int64(nil), g.nnTable...),
		aggs:     append([]aggAcc(nil), g.aggs...),
	}
}

func newAggMaterialized(def *Definition, opts Options) (*AggMaterialized, error) {
	if def.Agg == nil {
		return nil, fmt.Errorf("view %s: not an aggregation view", def.Name)
	}
	a := &AggMaterialized{def: def, opts: opts, groups: make(map[string]*aggGroup)}
	// Output schema: group columns then aggregate columns.
	for _, c := range def.Agg.GroupCols {
		p := def.fullSchema.MustIndexOf(c.Table, c.Column)
		a.schema = append(a.schema, def.fullSchema[p])
	}
	for _, g := range def.Agg.Aggs {
		kind := rel.KindFloat
		if g.Func == algebra.AggCount {
			kind = rel.KindInt
		}
		a.schema = append(a.schema, rel.Column{Name: g.Name, Kind: kind})
	}
	// Tables null-extended in some term: any table absent from at least one
	// normal-form term.
	for _, t := range def.tables {
		inAll := true
		for _, term := range def.nf.Terms {
			if !term.Has(t) {
				inAll = false
				break
			}
		}
		if !inAll {
			a.nullableTables = append(a.nullableTables, t)
		}
	}
	return a, nil
}

// Schema returns the view's output schema (group columns then aggregates).
func (a *AggMaterialized) Schema() rel.Schema { return a.schema }

// Len returns the number of groups.
func (a *AggMaterialized) Len() int { return len(a.groups) }

// NotNullCount returns a group's not-null count for one table, along with
// whether the group exists; exposed for tests and tools.
func (a *AggMaterialized) NotNullCount(groupKey rel.Row, table string) (int64, bool) {
	g, ok := a.groups[rel.EncodeValues(groupKey...)]
	if !ok {
		return 0, false
	}
	for i, t := range a.nullableTables {
		if t == table {
			return g.nnTable[i], true
		}
	}
	return g.rowCount, true // tables present in every term count every row
}

// Materialize recomputes the groups from scratch. The stored groups are
// replaced only on success, so a mid-build failure leaves the view intact.
func (a *AggMaterialized) Materialize() error {
	ctx := &exec.Context{Catalog: a.def.cat}
	res, err := exec.Eval(ctx, a.def.Expr)
	if err != nil {
		return err
	}
	old := a.groups
	a.groups = make(map[string]*aggGroup)
	if err := a.fold(nil, "", res.Rows, res.Schema, +1); err != nil {
		a.groups = old
		return err
	}
	return nil
}

// fold merges rows (over any sub-schema of the tuple space) into the groups
// with the given sign. Columns missing from the schema are treated as NULL
// (they belong to null-extended tables). A non-nil cs snapshots each
// touched group before its first mutation (and consults the fault hook at
// site), so the fold participates in the run's undo log; Materialize folds
// with a nil cs into a fresh group map it swaps in atomically.
func (a *AggMaterialized) fold(cs *Changeset, site string, rows []rel.Row, schema rel.Schema, sign int64) error {
	spec := a.def.Agg
	groupPos := make([]int, len(spec.GroupCols))
	for i, c := range spec.GroupCols {
		groupPos[i] = schema.IndexOf(c.Table, c.Column)
	}
	aggPos := make([]int, len(spec.Aggs))
	for i, g := range spec.Aggs {
		aggPos[i] = -1
		if g.Func != algebra.AggCount || g.Col != (algebra.ColRef{}) {
			aggPos[i] = schema.IndexOf(g.Col.Table, g.Col.Column)
		}
	}
	witness := make([]int, len(a.nullableTables))
	for i, t := range a.nullableTables {
		witness[i] = -1
		tab := a.def.cat.Table(t)
		if kcs := tab.KeyCols(); len(kcs) > 0 {
			witness[i] = schema.IndexOf(t, tab.Schema()[kcs[0]].Name)
		}
	}
	for _, row := range rows {
		key := make(rel.Row, len(groupPos))
		for i, p := range groupPos {
			if p >= 0 {
				key[i] = row[p]
			}
		}
		k := rel.EncodeValues(key...)
		if cs != nil {
			if err := cs.fail(site); err != nil {
				return err
			}
			cs.snapshotGroup(k)
		}
		if a.dirtyGroups != nil {
			a.dirtyGroups[k] = struct{}{}
		}
		g := a.groups[k]
		if g == nil {
			if sign < 0 {
				return fmt.Errorf("view %s: delta removes rows from a missing group %s", a.def.Name, key)
			}
			g = &aggGroup{key: key, nnTable: make([]int64, len(a.nullableTables)), aggs: make([]aggAcc, len(spec.Aggs))}
			a.groups[k] = g
		}
		g.rowCount += sign
		for i, w := range witness {
			if w >= 0 && !row[w].IsNull() {
				g.nnTable[i] += sign
			}
		}
		for i := range spec.Aggs {
			acc := &g.aggs[i]
			p := aggPos[i]
			if p < 0 {
				continue // COUNT(*) uses rowCount
			}
			v := row[p]
			if v.IsNull() {
				continue
			}
			acc.nonNull += sign
			if acc.sum.IsNull() {
				acc.sum = rel.Int(0)
			}
			if sign > 0 {
				acc.sum = rel.Add(acc.sum, v)
			} else {
				acc.sum = rel.Sub(acc.sum, v)
			}
		}
		if g.rowCount == 0 {
			delete(a.groups, k)
		} else if g.rowCount < 0 {
			return fmt.Errorf("view %s: negative row count in group %s", a.def.Name, key)
		}
	}
	return nil
}

// aggValue renders one aggregate of a group with standard SQL NULL
// semantics.
func (g *aggGroup) aggValue(ag algebra.Aggregate, i int) rel.Value {
	acc := g.aggs[i]
	switch ag.Func {
	case algebra.AggCount:
		if ag.Col == (algebra.ColRef{}) {
			return rel.Int(g.rowCount)
		}
		return rel.Int(acc.nonNull)
	case algebra.AggSum:
		if acc.nonNull == 0 {
			return rel.Null
		}
		return acc.sum
	case algebra.AggAvg:
		if acc.nonNull == 0 {
			return rel.Null
		}
		return rel.Float(acc.sum.AsFloat() / float64(acc.nonNull))
	}
	return rel.Null
}

// Rows materializes the SQL-visible contents: group columns followed by the
// aggregate values with standard NULL semantics.
func (a *AggMaterialized) Rows() []rel.Row {
	return a.rowsFrom(len(a.groups), func(f func(string, *aggGroup) bool) {
		for k, g := range a.groups {
			if !f(k, g) {
				return
			}
		}
	})
}

// applyAgg maintains an aggregation view: the aggregated primary delta is
// folded in with the update's sign, then the secondary delta (computed from
// base tables — an aggregated view cannot serve term extraction, Section
// 5.3) is folded with the opposite sign. evidence is the context the
// Section 5.3 anti-joins read the base tables through.
func (m *Maintainer) applyAgg(cs *Changeset, span *obs.Span, evidence *exec.Context, plan *tablePlan, primary exec.Relation, isInsert bool, stats *MaintStats) error {
	sign := int64(1)
	if !isInsert {
		sign = -1
	}
	applySpan := span.Child("primary.apply").SetInt("rows", int64(len(primary.Rows)))
	if len(primary.Rows) > 0 {
		if err := m.agg.fold(cs, "agg-primary-fold", primary.Rows, primary.Schema, sign); err != nil {
			applySpan.End()
			return err
		}
	}
	applySpan.End()
	if len(plan.indirect) == 0 {
		return nil
	}
	sec := span.Child("secondary").SetStr("source", "base")
	defer sec.End()
	cands, err := m.secondaryCandidatesAll(evidence, sec, plan, primary)
	if err != nil {
		return err
	}
	for i, ip := range plan.indirect {
		cand := cands[i]
		if len(cand.Rows) == 0 {
			continue
		}
		ts := sec.Child("term.apply").SetStr("term", ip.term.SourceKey()).
			SetInt("rows", int64(len(cand.Rows)))
		err := m.agg.fold(cs, "agg-secondary-fold", cand.Rows, cand.Schema, -sign)
		ts.End()
		if err != nil {
			return err
		}
		stats.SecondaryByTerm[ip.term.SourceKey()] = len(cand.Rows)
		stats.SecondaryRows += len(cand.Rows)
	}
	sec.SetInt("rows", int64(stats.SecondaryRows))
	return nil
}
