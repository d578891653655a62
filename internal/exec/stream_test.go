package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/fixture"
	"ojv/internal/rel"
)

// This file proves stream ≡ materialize: every streaming operator and every
// join kind is checked against evalReference, a deliberately naive
// tree-walking evaluator that materializes each node bottom-up (the shape
// the executor had before the pipeline refactor). The pipeline must produce
// the same multiset as the oracle, and byte-identical rows in identical
// order at every BatchSize setting.

// evalReference is the test-only materializing oracle. Joins run as a
// nested loop (never index nested loop, never hashed), so it shares no physical machinery with the pipeline other
// than the row-level helpers (dedup, removeSubsumed, null extension) that
// predate the refactor and have their own unit tests.
func evalReference(ctx *Context, e algebra.Expr) (Relation, error) {
	switch n := e.(type) {
	case *algebra.TableRef:
		t := ctx.Catalog.Table(n.Name)
		if t == nil {
			return Relation{}, fmt.Errorf("ref: unknown table %s", n.Name)
		}
		return Relation{Schema: t.Schema(), Rows: t.Rows()}, nil

	case *algebra.DeltaRef:
		t := ctx.Catalog.Table(n.Name)
		if t == nil {
			return Relation{}, fmt.Errorf("ref: unknown table %s", n.Name)
		}
		return Relation{Schema: t.Schema(), Rows: ctx.deltaOf(n.Name)}, nil

	case *algebra.OldTableRef:
		t := ctx.Catalog.Table(n.Name)
		if t == nil {
			return Relation{}, fmt.Errorf("ref: unknown table %s", n.Name)
		}
		if n.Name != ctx.DeltaTable {
			return Relation{Schema: t.Schema(), Rows: t.Rows()}, nil
		}
		added := make(map[string]bool, len(ctx.Added))
		for _, d := range ctx.Added {
			added[t.KeyOf(d)] = true
		}
		var rows []rel.Row
		for _, r := range t.Rows() {
			if !added[t.KeyOf(r)] {
				rows = append(rows, r)
			}
		}
		return Relation{Schema: t.Schema(), Rows: append(rows, ctx.Removed...)}, nil

	case *algebra.RelRef:
		r, ok := ctx.Rels[n.Name]
		if !ok {
			return Relation{}, fmt.Errorf("ref: unbound relation %s", n.Name)
		}
		return r, nil

	case *algebra.Select:
		in, err := evalReference(ctx, n.Input)
		if err != nil {
			return Relation{}, err
		}
		f, err := n.Pred.Compile(in.Schema)
		if err != nil {
			return Relation{}, err
		}
		out := Relation{Schema: in.Schema}
		for _, r := range in.Rows {
			if f(r) == algebra.True {
				out.Rows = append(out.Rows, r)
			}
		}
		return out, nil

	case *algebra.Project:
		in, err := evalReference(ctx, n.Input)
		if err != nil {
			return Relation{}, err
		}
		cols := make([]int, len(n.Cols))
		for i, c := range n.Cols {
			cols[i] = in.Schema.MustIndexOf(c.Table, c.Column)
		}
		out := Relation{Schema: in.Schema.Project(cols)}
		for _, r := range in.Rows {
			out.Rows = append(out.Rows, r.Project(cols))
		}
		return out, nil

	case *algebra.Join:
		left, err := evalReference(ctx, n.Left)
		if err != nil {
			return Relation{}, err
		}
		right, err := evalReference(ctx, n.Right)
		if err != nil {
			return Relation{}, err
		}
		return refJoin(n.Kind, left, right, n.Pred)

	case *algebra.OuterUnion:
		return refUnion(ctx, n.Inputs)

	case *algebra.MinUnion:
		u, err := refUnion(ctx, n.Inputs)
		if err != nil {
			return Relation{}, err
		}
		return Relation{Schema: u.Schema, Rows: removeSubsumed(u.Rows)}, nil

	case *algebra.RemoveSubsumed:
		in, err := evalReference(ctx, n.Input)
		if err != nil {
			return Relation{}, err
		}
		return Relation{Schema: in.Schema, Rows: removeSubsumed(in.Rows)}, nil

	case *algebra.Dedup:
		in, err := evalReference(ctx, n.Input)
		if err != nil {
			return Relation{}, err
		}
		return Relation{Schema: in.Schema, Rows: dedup(in.Rows)}, nil

	case *algebra.NullIf:
		in, err := evalReference(ctx, n.Input)
		if err != nil {
			return Relation{}, err
		}
		f, err := n.Unless.Compile(in.Schema)
		if err != nil {
			return Relation{}, err
		}
		var nullCols []int
		for _, t := range n.NullTables {
			nullCols = append(nullCols, in.Schema.TableColumns(t)...)
		}
		out := Relation{Schema: in.Schema}
		for _, r := range in.Rows {
			if f(r) == algebra.True {
				out.Rows = append(out.Rows, r)
				continue
			}
			nr := r.Clone()
			for _, c := range nullCols {
				nr[c] = rel.Null
			}
			out.Rows = append(out.Rows, nr)
		}
		return out, nil

	case *algebra.Condense:
		in, err := evalReference(ctx, n.Input)
		if err != nil {
			return Relation{}, err
		}
		if len(n.GroupKey) == 0 {
			return Relation{Schema: in.Schema, Rows: dedup(removeSubsumed(in.Rows))}, nil
		}
		keyCols := make([]int, len(n.GroupKey))
		for i, c := range n.GroupKey {
			keyCols[i] = in.Schema.MustIndexOf(c.Table, c.Column)
		}
		groups := make(map[string][]rel.Row)
		var order []string
		for _, r := range in.Rows {
			k := rel.EncodeRowCols(r, keyCols)
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], r)
		}
		out := Relation{Schema: in.Schema}
		for _, k := range order {
			out.Rows = append(out.Rows, dedup(removeSubsumed(groups[k]))...)
		}
		return out, nil

	case *algebra.Pad:
		in, err := evalReference(ctx, n.Input)
		if err != nil {
			return Relation{}, err
		}
		outSchema, err := algebra.SchemaOf(n, ctx)
		if err != nil {
			return Relation{}, err
		}
		out := Relation{Schema: outSchema}
		for _, r := range in.Rows {
			pr := make(rel.Row, len(outSchema))
			copy(pr, r)
			out.Rows = append(out.Rows, pr)
		}
		return out, nil

	case *algebra.GroupBy:
		return refGroupBy(ctx, n)

	default:
		return Relation{}, fmt.Errorf("ref: unknown node %T", e)
	}
}

// refJoin is a serial nested-loop join implementing all six kinds. For each
// left row every right row is visited in input order, so matches appear in
// (left, right-index) order and unmatched right rows trail in right order —
// the order contract the streaming hash join upholds.
func refJoin(kind algebra.JoinKind, left, right Relation, pred algebra.Pred) (Relation, error) {
	concat := left.Schema.Concat(right.Schema)
	f, err := pred.Compile(concat)
	if err != nil {
		return Relation{}, err
	}
	outSchema := concat
	if kind == algebra.SemiJoin || kind == algebra.AntiJoin {
		outSchema = left.Schema
	}
	matchedRight := make([]bool, len(right.Rows))
	buf := make(rel.Row, len(concat))
	out := Relation{Schema: outSchema}
	for _, l := range left.Rows {
		matched := false
		for ri, r := range right.Rows {
			copy(buf, l)
			copy(buf[len(l):], r)
			if f(buf) != algebra.True {
				continue
			}
			matched = true
			matchedRight[ri] = true
			switch kind {
			case algebra.InnerJoin, algebra.LeftOuterJoin, algebra.RightOuterJoin, algebra.FullOuterJoin:
				out.Rows = append(out.Rows, buf.Clone())
			}
		}
		switch kind {
		case algebra.LeftOuterJoin, algebra.FullOuterJoin:
			if !matched {
				out.Rows = append(out.Rows, append(l.Clone(), make(rel.Row, len(right.Schema))...))
			}
		case algebra.SemiJoin:
			if matched {
				out.Rows = append(out.Rows, l)
			}
		case algebra.AntiJoin:
			if !matched {
				out.Rows = append(out.Rows, l)
			}
		}
	}
	if kind == algebra.RightOuterJoin || kind == algebra.FullOuterJoin {
		for ri, r := range right.Rows {
			if !matchedRight[ri] {
				out.Rows = append(out.Rows, append(make(rel.Row, len(left.Schema)), r...))
			}
		}
	}
	return out, nil
}

// refUnion materializes each input and pads it into the union schema.
func refUnion(ctx *Context, inputs []algebra.Expr) (Relation, error) {
	ins := make([]Relation, len(inputs))
	var schema rel.Schema
	for i, e := range inputs {
		in, err := evalReference(ctx, e)
		if err != nil {
			return Relation{}, err
		}
		ins[i] = in
		if i == 0 {
			schema = in.Schema
		} else {
			schema = schema.Union(in.Schema)
		}
	}
	out := Relation{Schema: schema}
	for _, in := range ins {
		mapping := make([]int, len(in.Schema))
		for j, c := range in.Schema {
			mapping[j] = schema.MustIndexOf(c.Table, c.Name)
		}
		for _, r := range in.Rows {
			padded := make(rel.Row, len(schema))
			for j, v := range r {
				padded[mapping[j]] = v
			}
			out.Rows = append(out.Rows, padded)
		}
	}
	return out, nil
}

// refGroupBy materializes the input and folds it with the SQL aggregate
// semantics the executor promises: COUNT(*) counts rows, COUNT(c) counts
// non-null values, SUM/AVG over zero non-null inputs are NULL. Groups emit
// in first-seen order.
func refGroupBy(ctx *Context, n *algebra.GroupBy) (Relation, error) {
	in, err := evalReference(ctx, n.Input)
	if err != nil {
		return Relation{}, err
	}
	outSchema, err := algebra.SchemaOf(n, ctx)
	if err != nil {
		return Relation{}, err
	}
	groupCols := make([]int, len(n.GroupCols))
	for i, c := range n.GroupCols {
		groupCols[i] = in.Schema.MustIndexOf(c.Table, c.Column)
	}
	aggCols := make([]int, len(n.Aggs))
	for i, a := range n.Aggs {
		aggCols[i] = -1
		if !(a.Func == algebra.AggCount && a.Col == (algebra.ColRef{})) {
			aggCols[i] = in.Schema.MustIndexOf(a.Col.Table, a.Col.Column)
		}
	}
	groups := make(map[string]*group)
	var order []string
	for _, r := range in.Rows {
		k := rel.EncodeRowCols(r, groupCols)
		g := groups[k]
		if g == nil {
			g = &group{row: r.Project(groupCols), aggs: make([]aggState, len(n.Aggs))}
			groups[k] = g
			order = append(order, k)
		}
		for i := range n.Aggs {
			st := &g.aggs[i]
			st.count++
			if aggCols[i] < 0 {
				continue
			}
			v := r[aggCols[i]]
			if v.IsNull() {
				continue
			}
			st.nonNull++
			if st.sum.IsNull() {
				st.sum = v
			} else {
				st.sum = rel.Add(st.sum, v)
			}
		}
	}
	out := Relation{Schema: outSchema}
	for _, k := range order {
		g := groups[k]
		row := append(rel.Row{}, g.row...)
		for i, a := range n.Aggs {
			st := g.aggs[i]
			switch a.Func {
			case algebra.AggCount:
				if aggCols[i] < 0 {
					row = append(row, rel.Int(st.count))
				} else {
					row = append(row, rel.Int(st.nonNull))
				}
			case algebra.AggSum:
				row = append(row, st.sum)
			case algebra.AggAvg:
				if st.nonNull == 0 {
					row = append(row, rel.Null)
				} else {
					row = append(row, rel.Float(st.sum.AsFloat()/float64(st.nonNull)))
				}
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// streamCase is one property-test subject: an expression plus the delta
// direction OldTableRef scans should assume.
type streamCase struct {
	name        string
	expr        algebra.Expr
	deltaDelete bool // bind the delta as removed rows, not added ones
}

// twiceSelectedB is σ[Bv>5](σ[Bv<70](B)).
func twiceSelectedB() algebra.Expr {
	return &algebra.Select{
		Input: &algebra.Select{Input: &algebra.TableRef{Name: "B"}, Pred: algebra.CmpConst("B", "Bv", algebra.OpLt, rel.Int(70))},
		Pred:  algebra.CmpConst("B", "Bv", algebra.OpGt, rel.Int(5)),
	}
}

// streamCases enumerates expressions covering every streaming operator and
// every join kind on each physical join path (index nested loop, hash,
// nested loop).
func streamCases(rng *rand.Rand) []streamCase {
	a := &algebra.TableRef{Name: "A"}
	b := &algebra.TableRef{Name: "B"}
	equi := algebra.Eq("A", "Aj", "B", "Bj")
	nonEqui := algebra.Cmp{
		Left:  algebra.ColOperand("A", "Av"),
		Op:    algebra.OpLt,
		Right: algebra.ColOperand("B", "Bv"),
	}
	lo := &algebra.Join{Kind: algebra.LeftOuterJoin, Left: a, Right: b, Pred: equi}
	lambda := &algebra.NullIf{
		Input:      lo,
		Unless:     algebra.CmpConst("B", "Bv", algebra.OpLt, rel.Int(50)),
		NullTables: []string{"B"},
	}
	narrow := &algebra.Project{Input: a, Cols: []algebra.ColRef{algebra.Col("A", "Aj"), algebra.Col("A", "Av")}}
	// The subsumption operators are quadratic, so their cases run over a
	// selected-down join rather than the full one.
	smallA := &algebra.Select{Input: a, Pred: algebra.CmpConst("A", "Av", algebra.OpLt, rel.Int(20))}
	smallB := &algebra.Select{Input: b, Pred: algebra.CmpConst("B", "Bv", algebra.OpLt, rel.Int(20))}
	smallLo := &algebra.Join{Kind: algebra.LeftOuterJoin, Left: smallA, Right: smallB, Pred: equi}

	cases := []streamCase{
		{name: "select", expr: &algebra.Select{Input: a, Pred: algebra.CmpConst("A", "Av", algebra.OpLt, rel.Int(50))}},
		{name: "project", expr: &algebra.Project{Input: a, Cols: []algebra.ColRef{algebra.Col("A", "Av"), algebra.Col("A", "Ak")}}},
		{name: "dedup", expr: &algebra.Dedup{Input: narrow}},
		{name: "lambda", expr: lambda},
		{name: "condense-grouped", expr: &algebra.Condense{Input: lambda, GroupKey: []algebra.ColRef{algebra.Col("A", "Ak")}}},
		{name: "condense-global", expr: &algebra.Condense{Input: narrow}},
		{name: "pad", expr: &algebra.Pad{Input: a, Tables_: []string{"B"}}},
		{name: "outer-union", expr: &algebra.OuterUnion{Inputs: []algebra.Expr{lo, a}}},
		{name: "min-union", expr: &algebra.MinUnion{Inputs: []algebra.Expr{smallLo, smallA}}},
		{name: "remove-subsumed", expr: &algebra.RemoveSubsumed{Input: &algebra.OuterUnion{Inputs: []algebra.Expr{smallLo, smallA}}}},
		{name: "groupby", expr: &algebra.GroupBy{
			Input:     lo,
			GroupCols: []algebra.ColRef{algebra.Col("A", "Aj")},
			Aggs: []algebra.Aggregate{
				{Func: algebra.AggCount, Name: "n"},
				{Func: algebra.AggCount, Col: algebra.Col("B", "Bv"), Name: "nb"},
				{Func: algebra.AggSum, Col: algebra.Col("B", "Bv"), Name: "sb"},
				{Func: algebra.AggAvg, Col: algebra.Col("B", "Bv"), Name: "ab"},
			},
		}},
		{name: "delta-scan", expr: &algebra.Select{Input: &algebra.DeltaRef{Name: "A"}, Pred: algebra.CmpConst("A", "Av", algebra.OpLt, rel.Int(80))}},
		{name: "old-scan-insert", expr: &algebra.OldTableRef{Name: "A"}},
		{name: "old-scan-delete", expr: &algebra.OldTableRef{Name: "A"}, deltaDelete: true},
		{name: "relref", expr: &algebra.Select{
			Input: &algebra.RelRef{Name: "__r", TableNames: []string{"A"}},
			Pred:  algebra.CmpConst("A", "Av", algebra.OpLt, rel.Int(60)),
		}},
	}

	for _, kind := range allJoinKinds {
		// Right side is a plain indexed base table: index nested loop for the
		// kinds that allow it, hash join for right/full outer.
		cases = append(cases, streamCase{
			name: "join-base-" + kind.String(),
			expr: &algebra.Join{Kind: kind, Left: a, Right: b, Pred: equi},
		})
		// A leaf under two selections (what §4.1 leaves of σq(σp(B)) as a
		// right operand) still probes; both predicates filter the bucket.
		cases = append(cases, streamCase{
			name: "join-base-select2-" + kind.String(),
			expr: &algebra.Join{Kind: kind, Left: a, Right: twiceSelectedB(), Pred: equi},
		})
		// Dedup on the right defeats the index probe: always a hash join.
		cases = append(cases, streamCase{
			name: "join-hash-" + kind.String(),
			expr: &algebra.Join{Kind: kind, Left: a, Right: &algebra.Dedup{Input: b}, Pred: equi},
		})
		// No equijoin pair: nested-loop candidates.
		cases = append(cases, streamCase{
			name: "join-nested-" + kind.String(),
			expr: &algebra.Join{Kind: kind, Left: a, Right: b, Pred: nonEqui},
		})
	}

	for i := 0; i < 6; i++ {
		cases = append(cases, streamCase{name: fmt.Sprintf("rand-spoj-%d", i), expr: fixture.RandSPOJ(rng)})
	}
	return cases
}

// streamFixture is the shared evaluation input for one test: the fixture
// catalog plus stable snapshots of the bound delta and relation. The
// snapshots are taken once — Table.Rows hands out rows in map order, so a
// fresh call per evaluation would change scan order between runs.
type streamFixture struct {
	cat   *rel.Catalog
	delta []rel.Row
	relA  Relation
}

func newStreamFixture(t testing.TB, rng *rand.Rand, rows int) *streamFixture {
	t.Helper()
	cat, err := fixture.RandCatalog(rng, rows)
	if err != nil {
		t.Fatal(err)
	}
	ta := cat.Table("A")
	snap := sortedRows(ta.Rows())
	if len(snap) < 8 {
		t.Fatal("fixture table A too small")
	}
	return &streamFixture{
		cat:   cat,
		delta: snap[:5],
		relA:  Relation{Schema: ta.Schema(), Rows: snap[:8]},
	}
}

func (fx *streamFixture) context(tc streamCase, batch int) *Context {
	ctx := &Context{
		Catalog:    fx.cat,
		DeltaTable: "A",
		Delta:      fx.delta,
		Rels:       map[string]Relation{"__r": fx.relA},
		BatchSize:  batch,
	}
	if tc.deltaDelete {
		ctx.Removed = fx.delta
	} else {
		ctx.Added = fx.delta
	}
	return ctx
}

// sortedRows orders rows by their encoded values, turning a map-ordered
// snapshot into a stable one.
func sortedRows(rows []rel.Row) []rel.Row {
	sort.Slice(rows, func(i, j int) bool {
		return rel.EncodeValues(rows[i]...) < rel.EncodeValues(rows[j]...)
	})
	return rows
}

// streamSettings are the BatchSize values every property is checked at. 1
// forces the maximum number of operator round trips; 7 exercises ragged
// batch boundaries; 1024 is the default.
var streamSettings = []int{1, 7, 1024}

// TestStreamEquivalence is the stream ≡ materialize property over the
// fixture catalog: for every operator and join kind, the pipeline must
// produce the oracle's multiset at every BatchSize setting.
// Row order is not compared here — catalog scans hand out rows in map
// order, so even two identical evaluations disagree on order; the order
// contract is proven over fixed-order inputs by TestStreamOrderDeterminism.
func TestStreamEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fx := newStreamFixture(t, rng, 300)
	for _, tc := range streamCases(rng) {
		t.Run(tc.name, func(t *testing.T) {
			want, err := evalReference(fx.context(tc, 0), tc.expr)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			for _, batch := range streamSettings {
				got := evalOK(t, fx.context(tc, batch), tc.expr)
				if got.Schema.String() != want.Schema.String() {
					t.Fatalf("batch=%d: schema %s, want %s", batch, got.Schema, want.Schema)
				}
				if !sameRelation(got, want) {
					t.Fatalf("batch=%d: %d rows differ from oracle's %d rows\n%s",
						batch, len(got.Rows), len(want.Rows), tc.expr)
				}
			}
		})
	}
}

// orderCases builds the fixed-order variants of the operator coverage:
// every leaf is either a bound relation (fixed row order) or, for the
// index-nested-loop cases, a base table that is only index-probed, never
// scanned. Over these inputs the pipeline promises byte-identical rows in
// identical order at every BatchSize setting.
func orderCases() []streamCase {
	rref := func(n string) algebra.Expr { return &algebra.RelRef{Name: n, TableNames: []string{n}} }
	a, b := rref("A"), rref("B")
	equi := algebra.Eq("A", "Aj", "B", "Bj")
	nonEqui := algebra.Cmp{
		Left:  algebra.ColOperand("A", "Av"),
		Op:    algebra.OpLt,
		Right: algebra.ColOperand("B", "Bv"),
	}
	lo := &algebra.Join{Kind: algebra.LeftOuterJoin, Left: a, Right: b, Pred: equi}
	lambda := &algebra.NullIf{
		Input:      lo,
		Unless:     algebra.CmpConst("B", "Bv", algebra.OpLt, rel.Int(50)),
		NullTables: []string{"B"},
	}
	narrow := &algebra.Project{Input: a, Cols: []algebra.ColRef{algebra.Col("A", "Aj"), algebra.Col("A", "Av")}}
	// The subsumption operators are quadratic, so their cases run over a
	// join of the small fixed snapshots bound as A2/B2 rather than the big
	// relations.
	smallA, smallB := rref("A2"), rref("B2")
	smallLo := &algebra.Join{Kind: algebra.LeftOuterJoin, Left: smallA, Right: smallB, Pred: equi}

	cases := []streamCase{
		{name: "select", expr: &algebra.Select{Input: a, Pred: algebra.CmpConst("A", "Av", algebra.OpLt, rel.Int(50))}},
		{name: "project", expr: &algebra.Project{Input: a, Cols: []algebra.ColRef{algebra.Col("A", "Av"), algebra.Col("A", "Ak")}}},
		{name: "dedup", expr: &algebra.Dedup{Input: narrow}},
		{name: "lambda", expr: lambda},
		{name: "condense-grouped", expr: &algebra.Condense{Input: lambda, GroupKey: []algebra.ColRef{algebra.Col("A", "Ak")}}},
		{name: "condense-global", expr: &algebra.Condense{Input: narrow}},
		{name: "pad", expr: &algebra.Pad{Input: a, Tables_: []string{"B"}}},
		{name: "outer-union", expr: &algebra.OuterUnion{Inputs: []algebra.Expr{lo, a}}},
		{name: "min-union", expr: &algebra.MinUnion{Inputs: []algebra.Expr{smallLo, smallA}}},
		{name: "remove-subsumed", expr: &algebra.RemoveSubsumed{Input: &algebra.OuterUnion{Inputs: []algebra.Expr{smallLo, smallA}}}},
		{name: "groupby", expr: &algebra.GroupBy{
			Input:     lo,
			GroupCols: []algebra.ColRef{algebra.Col("A", "Aj")},
			Aggs: []algebra.Aggregate{
				{Func: algebra.AggCount, Name: "n"},
				{Func: algebra.AggCount, Col: algebra.Col("B", "Bv"), Name: "nb"},
				{Func: algebra.AggSum, Col: algebra.Col("B", "Bv"), Name: "sb"},
				{Func: algebra.AggAvg, Col: algebra.Col("B", "Bv"), Name: "ab"},
			},
		}},
		{name: "delta-scan", expr: &algebra.Select{Input: &algebra.DeltaRef{Name: "A"}, Pred: algebra.CmpConst("A", "Av", algebra.OpLt, rel.Int(80))}},
	}
	for _, kind := range allJoinKinds {
		cases = append(cases, streamCase{
			name: "join-hash-" + kind.String(),
			expr: &algebra.Join{Kind: kind, Left: a, Right: b, Pred: equi},
		})
		cases = append(cases, streamCase{
			name: "join-nested-" + kind.String(),
			expr: &algebra.Join{Kind: kind, Left: a, Right: b, Pred: nonEqui},
		})
		// Index nested loop never emits unmatched right rows, so only four
		// kinds qualify. The base table on the right is index-probed, not
		// scanned — probe order is fixed by the index, built once.
		if kind != algebra.RightOuterJoin && kind != algebra.FullOuterJoin {
			cases = append(cases, streamCase{
				name: "join-inl-" + kind.String(),
				expr: &algebra.Join{Kind: kind, Left: a, Right: &algebra.TableRef{Name: "B"}, Pred: equi},
			})
		}
	}
	return cases
}

// TestStreamOrderDeterminism evaluates fixed-order inputs at every
// BatchSize and requires byte-identical rows in identical order, plus
// multiset agreement with the oracle. The bound relations span several
// default-size batches, with a skewed join domain.
func TestStreamOrderDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(1042))
	fx := newStreamFixture(t, rng, 60)
	// Rebind A and B to big fixed-order relations in the tables' schemas:
	// skewed join attributes (domain 0..9 plus NULLs) give every join kind
	// matches, misses and multi-matches.
	mkBig := func(table string, n int) Relation {
		sch, _ := fx.cat.TableSchema(table)
		r := Relation{Schema: sch}
		for i := 0; i < n; i++ {
			j := rel.Value(rel.Int(int64(rng.Intn(10))))
			if rng.Intn(6) == 0 {
				j = rel.Null
			}
			r.Rows = append(r.Rows, rel.Row{rel.Int(int64(i)), j, rel.Int(int64(rng.Intn(100)))})
		}
		return r
	}
	snap := func(table string) Relation {
		t := fx.cat.Table(table)
		return Relation{Schema: t.Schema(), Rows: sortedRows(t.Rows())}
	}
	// 500×600 keeps the quadratic oracle fast.
	rels := map[string]Relation{
		"A":   mkBig("A", 500),
		"B":   mkBig("B", 600),
		"A2":  snap("A"),
		"B2":  snap("B"),
		"__r": fx.relA,
	}
	for _, tc := range orderCases() {
		t.Run(tc.name, func(t *testing.T) {
			mkCtx := func(batch int) *Context {
				ctx := fx.context(tc, batch)
				ctx.Rels = rels
				return ctx
			}
			want, err := evalReference(mkCtx(0), tc.expr)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if len(want.Rows) == 0 {
				t.Fatalf("degenerate case: oracle produced no rows")
			}
			var baseline Relation
			for i, batch := range streamSettings {
				got := evalOK(t, mkCtx(batch), tc.expr)
				if !sameRelation(got, want) {
					t.Fatalf("batch=%d: %d rows differ from oracle's %d rows",
						batch, len(got.Rows), len(want.Rows))
				}
				if i == 0 {
					baseline = got
					continue
				}
				if err := identicalRelations(baseline, got); err != nil {
					t.Fatalf("batch=%d: order differs from batch=%d: %v", batch, streamSettings[0], err)
				}
			}
		})
	}
}

// TestPipelinePartialClose abandons pipelines mid-stream — after a single
// batch, or without any Next at all — and checks Close remains clean.
func TestPipelinePartialClose(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	fx := newStreamFixture(t, rng, 200)
	for _, tc := range streamCases(rng) {
		ctx := fx.context(tc, 3)
		src, err := NewPipeline(ctx, tc.expr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := src.Open(); err != nil {
			src.Close()
			t.Fatalf("%s: open: %v", tc.name, err)
		}
		var b Batch
		if _, err := src.Next(&b); err != nil {
			t.Fatalf("%s: next: %v", tc.name, err)
		}
		if err := src.Close(); err != nil {
			t.Fatalf("%s: close: %v", tc.name, err)
		}
		// Close must be idempotent.
		if err := src.Close(); err != nil {
			t.Fatalf("%s: re-close: %v", tc.name, err)
		}
	}
}
