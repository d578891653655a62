package view

import (
	"fmt"

	"ojv/internal/algebra"
	"ojv/internal/exec"
	"ojv/internal/rel"
)

// RecomputeDirect computes the view contents from scratch by evaluating the
// definition's operator tree with the executor's native outer joins, and
// returns the projected rows sorted by encoding. It is one of two
// independent correctness oracles for incremental maintenance.
func RecomputeDirect(def *Definition) ([]rel.Row, error) {
	ctx := &exec.Context{Catalog: def.cat}
	res, err := exec.Eval(ctx, def.Expr)
	if err != nil {
		return nil, err
	}
	outSchema := make(rel.Schema, len(def.Output))
	for i, c := range def.Output {
		outSchema[i] = def.fullSchema[def.fullSchema.MustIndexOf(c.Table, c.Column)]
	}
	rows, err := projectToOutput(res, def, outSchema)
	if err != nil {
		return nil, err
	}
	rel.SortRows(rows)
	return rows, nil
}

// RecomputeNormalForm computes the view contents via the net-contribution
// form (Theorem 1): evaluate every normal-form term as an inner-join tree,
// compute each term's net contribution by anti-joining on the term key
// against the outer union of its parents (Lemma 1), null-extend, and union.
// It deliberately uses the normal form WITHOUT foreign-key term elimination
// so the oracle is independent of FK reasoning.
func RecomputeNormalForm(def *Definition) ([]rel.Row, error) {
	nf := def.nfNoFK
	ctx := &exec.Context{Catalog: def.cat}
	terms := make([]exec.Relation, len(nf.Terms))
	for i, term := range nf.Terms {
		leaves := make([]algebra.Expr, len(term.Tables))
		for j, t := range term.Tables {
			leaves[j] = &algebra.TableRef{Name: t}
		}
		expr := buildJoinTree(leaves, algebra.Conjuncts(term.Pred))
		r, err := exec.Eval(ctx, expr)
		if err != nil {
			return nil, fmt.Errorf("term %s: %w", term.SourceKey(), err)
		}
		terms[i] = r
	}

	outSchema := make(rel.Schema, len(def.Output))
	for i, c := range def.Output {
		outSchema[i] = def.fullSchema[def.fullSchema.MustIndexOf(c.Table, c.Column)]
	}
	var out []rel.Row
	for i, term := range nf.Terms {
		// Key columns of the term, resolved in both the term's own schema
		// and each parent's schema.
		keyRefs := termKeyCols(def.cat, term.Tables)
		ownKey := make([]int, len(keyRefs))
		for j, c := range keyRefs {
			ownKey[j] = terms[i].Schema.MustIndexOf(c.Table, c.Column)
		}
		subsumedBy := make(map[string]bool)
		for _, p := range nf.Parents[i] {
			pk := make([]int, len(keyRefs))
			for j, c := range keyRefs {
				pk[j] = terms[p].Schema.MustIndexOf(c.Table, c.Column)
			}
			for _, prow := range terms[p].Rows {
				subsumedBy[rel.EncodeRowCols(prow, pk)] = true
			}
		}
		mapping := make([]int, len(outSchema))
		for j, c := range outSchema {
			mapping[j] = terms[i].Schema.IndexOf(c.Table, c.Name)
		}
		for _, row := range terms[i].Rows {
			if subsumedBy[rel.EncodeRowCols(row, ownKey)] {
				continue
			}
			pr := make(rel.Row, len(outSchema))
			for j, src := range mapping {
				if src >= 0 {
					pr[j] = row[src]
				}
			}
			out = append(out, pr)
		}
	}
	rel.SortRows(out)
	return out, nil
}

// RecomputeAggregate computes an aggregation view from scratch via the
// executor's group-by.
func RecomputeAggregate(def *Definition) ([]rel.Row, error) {
	if def.Agg == nil {
		return nil, fmt.Errorf("view %s is not an aggregation view", def.Name)
	}
	ctx := &exec.Context{Catalog: def.cat}
	g := &algebra.GroupBy{Input: def.Expr, GroupCols: def.Agg.GroupCols, Aggs: def.Agg.Aggs}
	res, err := exec.Eval(ctx, g)
	if err != nil {
		return nil, err
	}
	rows := append([]rel.Row(nil), res.Rows...)
	rel.SortRows(rows)
	return rows, nil
}

// Check verifies a maintained view against both recompute oracles and
// returns a descriptive error on the first divergence. For aggregation
// views it compares against the group-by recompute.
// For a family it checks the stored rows against the family's definition;
// Member.Check checks one view.
func Check(m *Maintainer) error {
	if m.agg != nil {
		return checkAgg(m.def, m.agg.Rows())
	}
	return checkRows(m.def, m.mv.SortedRows())
}

// checkAgg compares an aggregation view's groups with the group-by
// recompute of def.
func checkAgg(def *Definition, got []rel.Row) error {
	want, err := RecomputeAggregate(def)
	if err != nil {
		return err
	}
	// Incrementally maintained SUM/AVG accumulate floating-point rounding in
	// a different order than a from-scratch recompute, so aggregate values
	// are compared with a relative tolerance.
	return diffRowsApprox(def.Name+" (aggregate)", got, want)
}

// checkRows compares a stored view's rows, sorted, with both recomputes of
// def.
func checkRows(def *Definition, got []rel.Row) error {
	direct, err := RecomputeDirect(def)
	if err != nil {
		return err
	}
	if err := diffRows(def.Name+" vs direct recompute", got, direct); err != nil {
		return err
	}
	viaNF, err := RecomputeNormalForm(def)
	if err != nil {
		return err
	}
	return diffRows(def.Name+" vs normal-form recompute", got, viaNF)
}

func diffRows(label string, got, want []rel.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("view %s: %d rows, oracle has %d%s", label, len(got), len(want), firstDiff(got, want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("view %s: row %d differs: got %s, want %s", label, i, got[i], want[i])
		}
	}
	return nil
}

func diffRowsApprox(label string, got, want []rel.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("view %s: %d rows, oracle has %d", label, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("view %s: row %d arity differs", label, i)
		}
		for j := range got[i] {
			if !approxEqual(got[i][j], want[i][j]) {
				return fmt.Errorf("view %s: row %d col %d differs: got %s, want %s", label, i, j, got[i], want[i])
			}
		}
	}
	return nil
}

// approxEqual is Value.Equal with a relative tolerance for floats.
func approxEqual(a, b rel.Value) bool {
	if a.Equal(b) {
		return true
	}
	if a.IsNull() || b.IsNull() {
		return false
	}
	if (a.Kind() == rel.KindFloat || a.Kind() == rel.KindInt) && (b.Kind() == rel.KindFloat || b.Kind() == rel.KindInt) {
		af, bf := a.AsFloat(), b.AsFloat()
		diff := af - bf
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if m := mathAbs(af); m > scale {
			scale = m
		}
		if m := mathAbs(bf); m > scale {
			scale = m
		}
		return diff <= 1e-9*scale
	}
	return false
}

func mathAbs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

func firstDiff(got, want []rel.Row) string {
	gm := make(map[string]rel.Row, len(got))
	for _, r := range got {
		gm[rel.EncodeValues(r...)] = r
	}
	for _, r := range want {
		if _, ok := gm[rel.EncodeValues(r...)]; !ok {
			return fmt.Sprintf("; first missing row: %s", r)
		}
	}
	wm := make(map[string]bool, len(want))
	for _, r := range want {
		wm[rel.EncodeValues(r...)] = true
	}
	for _, r := range got {
		if !wm[rel.EncodeValues(r...)] {
			return fmt.Sprintf("; first extra row: %s", r)
		}
	}
	return ""
}
