package oracle

import (
	"fmt"
	"math/rand"

	"ojv"
	"ojv/internal/algebra"
	"ojv/internal/rel"
)

// viewDef is a view as the harness registered it: an SPOJ expression and
// either its output columns or its aggregation.
type viewDef struct {
	expr   algebra.Expr
	output []algebra.ColRef
	agg    *ojv.AggSpec
}

// drawView draws a view over 2 to 4 of the model's tables: leaves under an
// occasional selection on v, folded into a random tree of the four join
// kinds. A join compares j with j, or a child's f with its parent's key (the
// foreign-key join Section 6 simplifies), or now and then j with a key. The
// output keeps every key column and most of the others, in shuffled order.
func (m *model) drawView(seed uint32, aggregate bool) viewDef {
	rng := rand.New(rand.NewSource(int64(seed)))
	k := 2 + rng.Intn(min(4, len(m.tables))-1)
	var leaves []algebra.Expr
	for _, i := range rng.Perm(len(m.tables))[:k] {
		n := m.tables[i].Name
		var e algebra.Expr = &algebra.TableRef{Name: n}
		if rng.Intn(4) == 0 {
			op := []algebra.CmpOp{algebra.OpLt, algebra.OpGe}[rng.Intn(2)]
			e = &algebra.Select{Input: e, Pred: algebra.CmpConst(n, n+"v", op, rel.Int(int64(10+rng.Intn(80))))}
		}
		leaves = append(leaves, e)
	}
	for len(leaves) > 1 {
		i := rng.Intn(len(leaves) - 1)
		lt, rt := leaves[i].Tables(), leaves[i+1].Tables()
		l, r := m.table(lt[rng.Intn(len(lt))]), m.table(rt[rng.Intn(len(rt))])
		for _, a := range lt {
			for _, b := range rt {
				if ta, tb := m.table(a), m.table(b); ta.parent == tb || tb.parent == ta {
					l, r = ta, tb // a parent and its child: the foreign-key join
				}
			}
		}
		pred := algebra.Eq(l.Name, l.Name+"j", r.Name, r.Name+"j")
		switch {
		case r.parent == l && rng.Intn(3) > 0:
			pred = algebra.Eq(l.Name, l.Name+"k", r.Name, r.Name+"f")
		case l.parent == r && rng.Intn(3) > 0:
			pred = algebra.Eq(l.Name, l.Name+"f", r.Name, r.Name+"k")
		case rng.Intn(8) == 0:
			pred = algebra.Eq(l.Name, l.Name+"j", r.Name, r.Name+"k")
		}
		kind := []algebra.JoinKind{algebra.InnerJoin, algebra.LeftOuterJoin, algebra.RightOuterJoin, algebra.FullOuterJoin}[rng.Intn(4)]
		leaves = append(leaves[:i], append([]algebra.Expr{&algebra.Join{Kind: kind, Left: leaves[i], Right: leaves[i+1], Pred: pred}}, leaves[i+2:]...)...)
	}
	d := viewDef{expr: leaves[0]}
	tables := d.expr.Tables()
	col := func() algebra.ColRef { t := tables[rng.Intn(len(tables))]; return algebra.Col(t, t+"v") }
	if aggregate {
		g := tables[rng.Intn(len(tables))]
		d.agg = &ojv.AggSpec{GroupCols: []algebra.ColRef{algebra.Col(g, g+"j")},
			Aggs: []algebra.Aggregate{ojv.Count("n"), ojv.Sum(col(), "s")}}
		if rng.Intn(2) == 0 {
			d.agg.Aggs = append(d.agg.Aggs, ojv.Avg(col(), "a"))
		}
		if rng.Intn(2) == 0 {
			d.agg.Aggs = append(d.agg.Aggs, ojv.CountCol(col(), "c"))
		}
		return d
	}
	for _, t := range tables {
		for i, c := range m.table(t).Columns() {
			if i == 0 || rng.Intn(4) > 0 {
				d.output = append(d.output, algebra.Col(t, c.Name))
			}
		}
	}
	rng.Shuffle(len(d.output), func(i, j int) { d.output[i], d.output[j] = d.output[j], d.output[i] })
	return d
}

// sibling returns a copy of a view with the constant of its first leaf
// selection on a table in every term redrawn: a leaf reached from the root
// through inner joins and the preserved sides of one-sided outer joins only.
// The copy then differs from the view only where σ commutes to the top, so
// the facade maintains the two as one view family. A view with no such
// selection is copied as it is.
func sibling(d viewDef, rng *rand.Rand) viewDef {
	out := d
	out.expr = algebra.CloneExpr(d.expr)
	var redraw func(e algebra.Expr) bool
	redraw = func(e algebra.Expr) bool {
		switch n := e.(type) {
		case *algebra.Select:
			if c, ok := n.Pred.(algebra.Cmp); ok {
				c.Right = algebra.ConstOperand(rel.Int(int64(10 + rng.Intn(80))))
				n.Pred = c
				return true
			}
		case *algebra.Join:
			return (n.Kind == algebra.InnerJoin || n.Kind == algebra.LeftOuterJoin) && redraw(n.Left) ||
				(n.Kind == algebra.InnerJoin || n.Kind == algebra.RightOuterJoin) && redraw(n.Right)
		}
		return false
	}
	redraw(out.expr)
	return out
}

// eval computes a view from the model's committed rows: nested loops over
// the expression tree, then the projection or the grouping. It shares
// nothing with the maintenance code but algebra's predicate compiler.
func (m *model) eval(d viewDef) ([]rel.Row, error) {
	sch, rows, err := m.evalExpr(d.expr)
	if err != nil {
		return nil, err
	}
	if d.agg == nil {
		pos, err := positions(sch, d.output)
		if err != nil {
			return nil, err
		}
		for i, r := range rows {
			rows[i] = r.Project(pos)
		}
		return rows, nil
	}
	return group(sch, rows, d.agg)
}

func (m *model) evalExpr(e algebra.Expr) (rel.Schema, []rel.Row, error) {
	switch n := e.(type) {
	case *algebra.TableRef:
		t := m.table(n.Name)
		return t.Columns(), rowsOf(t.rows), nil
	case *algebra.Select:
		sch, in, err := m.evalExpr(n.Input)
		if err != nil {
			return nil, nil, err
		}
		f, err := n.Pred.Compile(sch)
		if err != nil {
			return nil, nil, err
		}
		var out []rel.Row
		for _, r := range in {
			if f(r) == algebra.True {
				out = append(out, r)
			}
		}
		return sch, out, nil
	case *algebra.Join:
		ls, left, err := m.evalExpr(n.Left)
		if err != nil {
			return nil, nil, err
		}
		rs, right, err := m.evalExpr(n.Right)
		if err != nil {
			return nil, nil, err
		}
		sch := ls.Concat(rs)
		f, err := n.Pred.Compile(sch)
		if err != nil {
			return nil, nil, err
		}
		concat := func(l, r rel.Row) rel.Row {
			out := make(rel.Row, len(sch)) // a nil side stays NULL: the padding
			copy(out, l)
			copy(out[len(ls):], r)
			return out
		}
		var out []rel.Row
		rightMatched := make([]bool, len(right))
		for _, l := range left {
			matched := false
			for i, r := range right {
				if row := concat(l, r); f(row) == algebra.True {
					out = append(out, row)
					matched, rightMatched[i] = true, true
				}
			}
			if !matched && (n.Kind == algebra.LeftOuterJoin || n.Kind == algebra.FullOuterJoin) {
				out = append(out, concat(l, nil))
			}
		}
		for i, r := range right {
			if !rightMatched[i] && (n.Kind == algebra.RightOuterJoin || n.Kind == algebra.FullOuterJoin) {
				out = append(out, concat(nil, r))
			}
		}
		return sch, out, nil
	}
	return nil, nil, fmt.Errorf("oracle: cannot evaluate %T", e)
}

func positions(sch rel.Schema, cols []algebra.ColRef) ([]int, error) {
	pos := make([]int, len(cols))
	for i, c := range cols {
		if pos[i] = sch.IndexOf(c.Table, c.Column); pos[i] < 0 {
			return nil, fmt.Errorf("oracle: column %s not in %s", c, sch)
		}
	}
	return pos, nil
}

// group evaluates a GROUP BY with SQL semantics: COUNT(*) counts rows,
// COUNT, SUM and AVG skip NULLs, and a SUM or AVG over no values is NULL.
func group(sch rel.Schema, rows []rel.Row, spec *ojv.AggSpec) ([]rel.Row, error) {
	gpos, err := positions(sch, spec.GroupCols)
	if err != nil {
		return nil, err
	}
	groups := map[string][]rel.Row{}
	for _, r := range rows {
		k := rel.EncodeRowCols(r, gpos)
		groups[k] = append(groups[k], r)
	}
	out := make([]rel.Row, 0, len(groups))
	for _, g := range groups {
		row := g[0].Project(gpos)
		for _, a := range spec.Aggs {
			n, sum := int64(0), rel.Value(rel.Int(0))
			for _, r := range g {
				if a.Col == (algebra.ColRef{}) {
					n++ // COUNT(*)
				} else if v := r[sch.IndexOf(a.Col.Table, a.Col.Column)]; !v.IsNull() {
					n, sum = n+1, rel.Add(sum, v)
				}
			}
			switch {
			case a.Func == algebra.AggCount:
				row = append(row, rel.Int(n))
			case n == 0:
				row = append(row, rel.Null)
			case a.Func == algebra.AggSum:
				row = append(row, sum)
			default:
				row = append(row, rel.Float(sum.AsFloat()/float64(n)))
			}
		}
		out = append(out, row)
	}
	return out, nil
}
