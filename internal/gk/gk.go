// Package gk implements a Griffin–Kumar-style baseline for incremental
// maintenance of outer-join views: algebraic change propagation.
//
// For an update to one base table, insert- and delete-delta expressions are
// derived per operator, bottom-up, from the outer-join decomposition
// lo = (⋈) ⊎ null-extended(▷). Everything is computed from base tables —
// the algorithm never consults the materialized view, does not exploit
// null-rejecting predicates or foreign keys to prune unaffected terms, and
// freely joins full base-table subexpressions — which is exactly the cost
// profile the paper attributes to the GK algorithm [2] in its experiments
// (Section 7) and related-work discussion (Section 8). The original SIGMOD
// Record paper leaves the semi/anti-join predicates unspecified; we complete
// them in the obvious way, so this implementation is a best case for the
// baseline.
package gk

import (
	"fmt"

	"ojv/internal/algebra"
	"ojv/internal/exec"
	"ojv/internal/rel"
)

// View is a materialized SPOJ view maintained with change propagation. Rows
// are stored in a hash map keyed by the full projected row (views output a
// unique key, so full-row encoding is injective).
type View struct {
	Name   string
	cat    *rel.Catalog
	expr   algebra.Expr
	output []algebra.ColRef
	schema rel.Schema
	rows   map[string]rel.Row
}

// New creates a GK-maintained view over the catalog.
func New(cat *rel.Catalog, name string, expr algebra.Expr, output []algebra.ColRef) (*View, error) {
	full := rel.Schema{}
	for _, t := range expr.Tables() {
		sch, ok := cat.TableSchema(t)
		if !ok {
			return nil, fmt.Errorf("gk: unknown table %s", t)
		}
		full = full.Concat(sch)
	}
	schema := make(rel.Schema, len(output))
	for i, c := range output {
		p := full.IndexOf(c.Table, c.Column)
		if p < 0 {
			return nil, fmt.Errorf("gk: output column %s does not exist", c)
		}
		schema[i] = full[p]
	}
	return &View{Name: name, cat: cat, expr: expr, output: output, schema: schema, rows: make(map[string]rel.Row)}, nil
}

// Len returns the number of stored rows.
func (v *View) Len() int { return len(v.rows) }

// Rows returns the stored rows in unspecified order.
func (v *View) Rows() []rel.Row {
	out := make([]rel.Row, 0, len(v.rows))
	for _, r := range v.rows {
		out = append(out, r)
	}
	return out
}

// SortedRows returns the stored rows sorted by encoding.
func (v *View) SortedRows() []rel.Row {
	rows := v.Rows()
	rel.SortRows(rows)
	return rows
}

// Materialize recomputes the view from scratch.
func (v *View) Materialize() error {
	ctx := &exec.Context{Catalog: v.cat}
	res, err := exec.Eval(ctx, v.expr)
	if err != nil {
		return err
	}
	v.rows = make(map[string]rel.Row, len(res.Rows))
	rows, err := v.project(res)
	if err != nil {
		return err
	}
	for _, r := range rows {
		v.rows[rel.EncodeValues(r...)] = r
	}
	return nil
}

// project pads/reorders a relation into the output schema (columns missing
// from the relation's schema — null-extended subexpressions — become NULL).
func (v *View) project(r exec.Relation) ([]rel.Row, error) {
	mapping := make([]int, len(v.schema))
	for i, c := range v.schema {
		mapping[i] = r.Schema.IndexOf(c.Table, c.Name)
	}
	out := make([]rel.Row, len(r.Rows))
	for i, row := range r.Rows {
		pr := make(rel.Row, len(v.schema))
		for j, src := range mapping {
			if src >= 0 {
				pr[j] = row[src]
			}
		}
		out[i] = pr
	}
	return out, nil
}

// OnInsert maintains the view after rows were inserted into table. The base
// table must already hold the new rows.
func (v *View) OnInsert(table string, delta []rel.Row) error {
	return v.apply(table, delta, true)
}

// OnDelete maintains the view after rows were deleted from table.
func (v *View) OnDelete(table string, delta []rel.Row) error {
	return v.apply(table, delta, false)
}

func (v *View) apply(table string, delta []rel.Row, isInsert bool) error {
	if len(delta) == 0 {
		return nil
	}
	referenced := false
	for _, t := range v.expr.Tables() {
		if t == table {
			referenced = true
		}
	}
	if !referenced {
		return nil
	}
	ins, del, err := BuildDeltas(v.expr, table, isInsert)
	if err != nil {
		return err
	}
	ctx := &exec.Context{Catalog: v.cat, DeltaTable: table, Delta: delta}
	if isInsert {
		ctx.Added = delta
	} else {
		ctx.Removed = delta
	}
	if del != nil {
		res, err := exec.Eval(ctx, del)
		if err != nil {
			return err
		}
		rows, err := v.project(res)
		if err != nil {
			return err
		}
		for _, r := range rows {
			k := rel.EncodeValues(r...)
			if _, ok := v.rows[k]; !ok {
				return fmt.Errorf("gk: view %s: delete delta row not present: %s", v.Name, r)
			}
			delete(v.rows, k)
		}
	}
	if ins != nil {
		res, err := exec.Eval(ctx, ins)
		if err != nil {
			return err
		}
		rows, err := v.project(res)
		if err != nil {
			return err
		}
		for _, r := range rows {
			k := rel.EncodeValues(r...)
			if _, ok := v.rows[k]; ok {
				return fmt.Errorf("gk: view %s: insert delta row already present: %s", v.Name, r)
			}
			v.rows[k] = r
		}
	}
	return nil
}

// BuildDeltas derives the insert- and delete-delta expressions of an SPOJ
// expression for an applied update to one base table. Either result may be
// nil (provably empty). The expressions reference the current table states,
// the bound delta (DeltaRef) and reconstructed pre-update states
// (OldTableRef).
func BuildDeltas(e algebra.Expr, table string, isInsert bool) (ins, del algebra.Expr, err error) {
	switch n := e.(type) {
	case *algebra.TableRef:
		if n.Name != table {
			return nil, nil, nil
		}
		if isInsert {
			return &algebra.DeltaRef{Name: table}, nil, nil
		}
		return nil, &algebra.DeltaRef{Name: table}, nil

	case *algebra.Select:
		cIns, cDel, err := BuildDeltas(n.Input, table, isInsert)
		if err != nil {
			return nil, nil, err
		}
		wrap := func(x algebra.Expr) algebra.Expr {
			if x == nil {
				return nil
			}
			return &algebra.Select{Input: x, Pred: n.Pred}
		}
		return wrap(cIns), wrap(cDel), nil

	case *algebra.Join:
		leftHas := onSide(n.Left, table)
		rightHas := onSide(n.Right, table)
		if !leftHas && !rightHas {
			return nil, nil, nil
		}
		if leftHas && rightHas {
			return nil, nil, fmt.Errorf("gk: table %s on both sides of a join (self-join)", table)
		}
		if rightHas {
			return buildJoinDeltasRight(n, table, isInsert)
		}
		return buildJoinDeltasLeft(n, table, isInsert)

	default:
		return nil, nil, fmt.Errorf("gk: %T is not an SPOJ operator", e)
	}
}

func onSide(e algebra.Expr, table string) bool {
	for _, t := range e.Tables() {
		if t == table {
			return true
		}
	}
	return false
}

// stateOld rewrites a subtree to reference the pre-update state of the
// changed table.
func stateOld(e algebra.Expr, table string) algebra.Expr {
	c := algebra.CloneExpr(e)
	var walk func(x algebra.Expr) algebra.Expr
	walk = func(x algebra.Expr) algebra.Expr {
		switch n := x.(type) {
		case *algebra.TableRef:
			if n.Name == table {
				return &algebra.OldTableRef{Name: table}
			}
			return n
		case *algebra.Select:
			n.Input = walk(n.Input)
			return n
		case *algebra.Join:
			n.Left = walk(n.Left)
			n.Right = walk(n.Right)
			return n
		default:
			return n
		}
	}
	return walk(c)
}

func union(parts ...algebra.Expr) algebra.Expr {
	var nonNil []algebra.Expr
	for _, p := range parts {
		if p != nil {
			nonNil = append(nonNil, p)
		}
	}
	switch len(nonNil) {
	case 0:
		return nil
	case 1:
		return nonNil[0]
	default:
		return &algebra.OuterUnion{Inputs: nonNil}
	}
}

// pad null-extends a delta part with the columns of the other join input,
// so every branch of a delta union carries the subtree's full schema.
func pad(x algebra.Expr, other algebra.Expr) algebra.Expr {
	if x == nil {
		return nil
	}
	return &algebra.Pad{Input: x, Tables_: append([]string(nil), other.Tables()...)}
}

func join(kind algebra.JoinKind, l, r algebra.Expr, p algebra.Pred) algebra.Expr {
	if l == nil || r == nil {
		return nil
	}
	return &algebra.Join{Kind: kind, Left: algebra.CloneExpr(l), Right: algebra.CloneExpr(r), Pred: p}
}

// buildJoinDeltasLeft handles a join whose LEFT input contains the updated
// table.
func buildJoinDeltasLeft(n *algebra.Join, table string, isInsert bool) (algebra.Expr, algebra.Expr, error) {
	ins1, del1, err := BuildDeltas(n.Left, table, isInsert)
	if err != nil {
		return nil, nil, err
	}
	e2 := n.Right
	switch n.Kind {
	case algebra.InnerJoin:
		return join(algebra.InnerJoin, ins1, e2, n.Pred), join(algebra.InnerJoin, del1, e2, n.Pred), nil
	case algebra.LeftOuterJoin:
		// Each left row's result depends only on itself.
		return join(algebra.LeftOuterJoin, ins1, e2, n.Pred), join(algebra.LeftOuterJoin, del1, e2, n.Pred), nil
	case algebra.RightOuterJoin:
		// ro = (⋈) ⊎ nullExt(e2 ▷ e1): mirror of the lo-with-changed-right
		// case below.
		insM := join(algebra.InnerJoin, ins1, e2, n.Pred)
		delM := join(algebra.InnerJoin, del1, e2, n.Pred)
		e1Old := stateOld(n.Left, table)
		// e2 rows gaining their first match lose the null-extended row...
		delN := pad(join(algebra.AntiJoin, join(algebra.SemiJoin, e2, ins1, n.Pred), e1Old, n.Pred), n.Left)
		// ...and rows losing their last match gain one.
		insN := pad(join(algebra.AntiJoin, join(algebra.SemiJoin, e2, del1, n.Pred), n.Left, n.Pred), n.Left)
		return union(insM, insN), union(delM, delN), nil
	case algebra.FullOuterJoin:
		// fo = (e1 lo e2) ⊎ nullExtLeft(e2 ▷ e1).
		insLo := join(algebra.LeftOuterJoin, ins1, e2, n.Pred)
		delLo := join(algebra.LeftOuterJoin, del1, e2, n.Pred)
		e1Old := stateOld(n.Left, table)
		delN := pad(join(algebra.AntiJoin, join(algebra.SemiJoin, e2, ins1, n.Pred), e1Old, n.Pred), n.Left)
		insN := pad(join(algebra.AntiJoin, join(algebra.SemiJoin, e2, del1, n.Pred), n.Left, n.Pred), n.Left)
		return union(insLo, insN), union(delLo, delN), nil
	default:
		return nil, nil, fmt.Errorf("gk: unsupported join kind %s", n.Kind)
	}
}

// buildJoinDeltasRight handles a join whose RIGHT input contains the
// updated table.
func buildJoinDeltasRight(n *algebra.Join, table string, isInsert bool) (algebra.Expr, algebra.Expr, error) {
	ins2, del2, err := BuildDeltas(n.Right, table, isInsert)
	if err != nil {
		return nil, nil, err
	}
	e1 := n.Left
	e2New := n.Right
	e2Old := stateOld(n.Right, table)
	switch n.Kind {
	case algebra.InnerJoin:
		return join(algebra.InnerJoin, e1, ins2, n.Pred), join(algebra.InnerJoin, e1, del2, n.Pred), nil
	case algebra.RightOuterJoin:
		// Each right row's result depends only on itself: mirror of
		// lo-with-changed-left.
		return join(algebra.RightOuterJoin, e1, ins2, n.Pred), join(algebra.RightOuterJoin, e1, del2, n.Pred), nil
	case algebra.LeftOuterJoin:
		insM := join(algebra.InnerJoin, e1, ins2, n.Pred)
		delM := join(algebra.InnerJoin, e1, del2, n.Pred)
		// Left rows matching a freshly inserted right row that had no match
		// before lose their null-extended row; left rows matching a deleted
		// right row and nothing in the new state gain one.
		delN := pad(join(algebra.AntiJoin, join(algebra.SemiJoin, e1, ins2, n.Pred), e2Old, n.Pred), n.Right)
		insN := pad(join(algebra.AntiJoin, join(algebra.SemiJoin, e1, del2, n.Pred), e2New, n.Pred), n.Right)
		return union(insM, insN), union(delM, delN), nil
	case algebra.FullOuterJoin:
		insM := join(algebra.InnerJoin, e1, ins2, n.Pred)
		delM := join(algebra.InnerJoin, e1, del2, n.Pred)
		delN := pad(join(algebra.AntiJoin, join(algebra.SemiJoin, e1, ins2, n.Pred), e2Old, n.Pred), n.Right)
		insN := pad(join(algebra.AntiJoin, join(algebra.SemiJoin, e1, del2, n.Pred), e2New, n.Pred), n.Right)
		// The right-preserved part: inserted right rows unmatched by e1
		// appear null-extended on e1; deleted ones disappear.
		insR := pad(join(algebra.AntiJoin, ins2, e1, n.Pred), e1)
		delR := pad(join(algebra.AntiJoin, del2, e1, n.Pred), e1)
		return union(insM, insN, insR), union(delM, delN, delR), nil
	default:
		return nil, nil, fmt.Errorf("gk: unsupported join kind %s", n.Kind)
	}
}
