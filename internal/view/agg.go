package view

import (
	"fmt"
	"slices"

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
//
// A group is one state row in a slot of a rel.Store, under its encoded
// group key:
//
//	[group cols…, rowCount, nnTable…, sum₀, nonNull₀, sum₁, nonNull₁, …]
//
// A stored state row is never written again: a fold replaces every group it
// touches, through the changeset, as a stored view replaces a row. So the
// groups share the view rows' undo log, rollback and epoch.
type AggMaterialized struct {
	def  *Definition
	opts Options

	schema         rel.Schema
	nullableTables []string
	// countAt is the state row's rowCount column, after the group columns;
	// the not-null counts follow it, and aggregate i's sum and not-null count
	// are at sumAt+2i and sumAt+2i+1.
	countAt, sumAt int

	rows rel.Store
}

func newAggMaterialized(def *Definition, opts Options) (*AggMaterialized, error) {
	if def.Agg == nil {
		return nil, fmt.Errorf("view %s: not an aggregation view", def.Name)
	}
	a := &AggMaterialized{def: def, opts: opts}
	a.rows.Init(nil, true)
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
	a.countAt = len(def.Agg.GroupCols)
	a.sumAt = a.countAt + 1 + len(a.nullableTables)
	return a, nil
}

// Schema returns the view's output schema (group columns then aggregates).
func (a *AggMaterialized) Schema() rel.Schema { return a.schema }

// Len returns the number of groups.
func (a *AggMaterialized) Len() int { return a.rows.Len() }

// NotNullCount returns a group's not-null count for one table, along with
// whether the group exists; exposed for tests and tools.
func (a *AggMaterialized) NotNullCount(groupKey rel.Row, table string) (int64, bool) {
	h, ok := a.rows.Lookup(rel.EncodeValues(groupKey...))
	if !ok {
		return 0, false
	}
	st := a.rows.At(h).Row
	for i, t := range a.nullableTables {
		if t == table {
			return st[a.countAt+1+i].AsInt(), true
		}
	}
	return st[a.countAt].AsInt(), true // tables present in every term count every row
}

// Materialize recomputes the groups from scratch. The rebuild fills a
// fresh view whose rows are swapped in whole, so a mid-build failure leaves
// the view intact.
func (a *AggMaterialized) Materialize() error {
	ctx := &exec.Context{Catalog: a.def.cat}
	res, err := exec.Eval(ctx, a.def.Expr)
	if err != nil {
		return err
	}
	fresh, err := newAggMaterialized(a.def, a.opts)
	if err != nil {
		return err
	}
	edits, err := fresh.fold(res.Rows, res.Schema, +1)
	if err != nil {
		return err
	}
	for _, e := range edits {
		fresh.rows.Fill(e.key, e.row) // fold keys its edits by group
	}
	a.rows.Adopt(&fresh.rows)
	return nil
}

// groupEdit is what a fold does to one group: the group's key, whether a
// state row is stored under it, and the state row that replaces it — nil
// when the group's row count reached zero.
type groupEdit struct {
	key    string
	stored bool
	row    rel.Row
}

// fold merges rows (over any sub-schema of the tuple space) with the given
// sign into copies of the groups they touch, and returns one edit per group
// in the order of first touch. Columns missing from the schema are treated
// as NULL (they belong to null-extended tables). Rows are merged in input
// order, so sums accumulate in it; the store is only read.
func (a *AggMaterialized) fold(rows []rel.Row, schema rel.Schema, sign int64) ([]groupEdit, error) {
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
	var edits []groupEdit
	at := make(map[string]int)
	var buf []byte
	for _, row := range rows {
		key := make(rel.Row, len(groupPos))
		for i, p := range groupPos {
			if p >= 0 {
				key[i] = row[p]
			}
		}
		buf = rel.AppendEncoded(buf[:0], key...)
		ei, ok := at[string(buf)]
		if !ok {
			e := groupEdit{key: string(buf)}
			if h, ok := a.rows.Lookup(e.key); ok {
				e.stored, e.row = true, slices.Clone(a.rows.At(h).Row)
			}
			ei = len(edits)
			at[e.key] = ei
			edits = append(edits, e)
		}
		st := edits[ei].row
		if st == nil {
			if sign < 0 {
				return nil, fmt.Errorf("view %s: delta removes rows from a missing group %s", a.def.Name, key)
			}
			st = a.newGroup(key)
		}
		count := st[a.countAt].AsInt() + sign
		st[a.countAt] = rel.Int(count)
		for i, w := range witness {
			if w >= 0 && !row[w].IsNull() {
				st[a.countAt+1+i] = rel.Int(st[a.countAt+1+i].AsInt() + sign)
			}
		}
		for i, p := range aggPos {
			if p < 0 {
				continue // COUNT(*) uses rowCount
			}
			v := row[p]
			if v.IsNull() {
				continue
			}
			sum, nonNull := a.sumAt+2*i, a.sumAt+2*i+1
			st[nonNull] = rel.Int(st[nonNull].AsInt() + sign)
			if st[sum].IsNull() {
				st[sum] = rel.Int(0)
			}
			if sign > 0 {
				st[sum] = rel.Add(st[sum], v)
			} else {
				st[sum] = rel.Sub(st[sum], v)
			}
		}
		switch {
		case count < 0:
			return nil, fmt.Errorf("view %s: negative row count in group %s", a.def.Name, key)
		case count == 0:
			st = nil // the group is gone; a later row starts it afresh
		}
		edits[ei].row = st
	}
	return edits, nil
}

// newGroup returns the state row of an empty group: counts 0, sums NULL.
func (a *AggMaterialized) newGroup(key rel.Row) rel.Row {
	st := make(rel.Row, a.sumAt+2*len(a.def.Agg.Aggs))
	copy(st, key)
	for c := a.countAt; c < a.sumAt; c++ {
		st[c] = rel.Int(0)
	}
	for c := a.sumAt + 1; c < len(st); c += 2 {
		st[c] = rel.Int(0)
	}
	return st
}

// foldGroups folds rows into the aggregation view with the given sign and
// stages the result: each stored group the fold touched is deleted and its
// replacement inserted under the same key, the fault hook consulted at site
// before each.
func (cs *Changeset) foldGroups(site string, rows []rel.Row, schema rel.Schema, sign int64) error {
	edits, err := cs.m.agg.fold(rows, schema, sign)
	if err != nil {
		return err
	}
	for _, e := range edits {
		if e.stored {
			if _, _, err := cs.deleteKey(site, []byte(e.key)); err != nil {
				return err
			}
		}
		if e.row != nil {
			if err := cs.insertRow(site, e.key, e.row); err != nil {
				return err
			}
		}
	}
	return nil
}

// render returns the SQL-visible row of a state row: the group columns, then
// each aggregate with standard SQL NULL semantics.
func (a *AggMaterialized) render(st rel.Row) rel.Row {
	row := append(make(rel.Row, 0, len(a.schema)), st[:a.countAt]...)
	for i, ag := range a.def.Agg.Aggs {
		sum, nonNull := st[a.sumAt+2*i], st[a.sumAt+2*i+1]
		switch {
		case ag.Func == algebra.AggCount && ag.Col == (algebra.ColRef{}):
			row = append(row, st[a.countAt])
		case ag.Func == algebra.AggCount:
			row = append(row, nonNull)
		case nonNull.AsInt() == 0:
			row = append(row, rel.Null)
		case ag.Func == algebra.AggSum:
			row = append(row, sum)
		default: // AggAvg
			row = append(row, rel.Float(sum.AsFloat()/float64(nonNull.AsInt())))
		}
	}
	return row
}

// rendered replaces every state row of rows, a slice the caller owns, by its
// rendering, and sorts them by encoded row.
func (a *AggMaterialized) rendered(rows []rel.Row) []rel.Row {
	for i, st := range rows {
		rows[i] = a.render(st)
	}
	rel.SortRows(rows)
	return rows
}

// Rows materializes the SQL-visible contents: group columns followed by the
// aggregate values with standard NULL semantics.
func (a *AggMaterialized) Rows() []rel.Row {
	return a.rendered(a.rows.Append(make([]rel.Row, 0, a.rows.Len())))
}

// applyAgg maintains an aggregation view for one half of a signed delta:
// the aggregated primary delta is folded in with the half's sign, then the
// secondary delta (computed from base tables — an aggregated view cannot
// serve term extraction, Section 5.3) is folded with the opposite sign.
func (m *Maintainer) applyAgg(cs *Changeset, span *obs.Span, ctx *exec.Context, plan *tablePlan, primary exec.Relation, sign int64, stats *MaintStats) error {
	applySpan := span.Child("primary.apply").SetInt("rows", int64(len(primary.Rows)))
	if len(primary.Rows) > 0 {
		if err := cs.foldGroups("agg-primary-fold", primary.Rows, primary.Schema, sign); err != nil {
			applySpan.End()
			return err
		}
	}
	applySpan.End()
	if len(plan.indirect) == 0 {
		return nil
	}
	sec := span.Child("secondary").SetStr("source", "base")
	before := stats.SecondaryRows
	defer func() { sec.SetInt("rows", int64(stats.SecondaryRows-before)).End() }()
	cands, err := secondaryCandidatesAll(ctx, sec, plan, primary, sign)
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
		err := cs.foldGroups("agg-secondary-fold", cand.Rows, cand.Schema, -sign)
		ts.End()
		if err != nil {
			return err
		}
		stats.addSecondary(ip.term.SourceKey(), len(cand.Rows))
	}
	return nil
}
