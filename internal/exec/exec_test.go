package exec

import (
	"math/rand"
	"sort"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/rel"
)

// testDB builds a two-table catalog:
//
//	L(lk, a)  rows: (1,10) (2,20) (3,NULL)
//	R(rk, a)  rows: (1,10) (2,99) (4,40)
func testDB(t testing.TB) *rel.Catalog {
	t.Helper()
	c := rel.NewCatalog()
	if _, err := c.CreateTable("L", []rel.Column{{Name: "lk", Kind: rel.KindInt}, {Name: "a", Kind: rel.KindInt}}, "lk"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("R", []rel.Column{{Name: "rk", Kind: rel.KindInt}, {Name: "a", Kind: rel.KindInt}}, "rk"); err != nil {
		t.Fatal(err)
	}
	must(t, c.Insert("L", []rel.Row{
		{rel.Int(1), rel.Int(10)},
		{rel.Int(2), rel.Int(20)},
		{rel.Int(3), rel.Null},
	}))
	must(t, c.Insert("R", []rel.Row{
		{rel.Int(1), rel.Int(10)},
		{rel.Int(2), rel.Int(99)},
		{rel.Int(4), rel.Int(40)},
	}))
	return c
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func evalOK(t testing.TB, ctx *Context, e algebra.Expr) Relation {
	t.Helper()
	r, err := Eval(ctx, e)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return r
}

// sortedKeys renders a relation as a sorted multiset of encoded rows for
// order-insensitive comparison.
func sortedKeys(r Relation) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = rel.EncodeValues(row...)
	}
	sort.Strings(out)
	return out
}

func sameRelation(a, b Relation) bool {
	ka, kb := sortedKeys(a), sortedKeys(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func joinOn(kind algebra.JoinKind) *algebra.Join {
	return &algebra.Join{
		Kind:  kind,
		Left:  &algebra.TableRef{Name: "L"},
		Right: &algebra.TableRef{Name: "R"},
		Pred:  algebra.Eq("L", "a", "R", "a"),
	}
}

func TestInnerJoin(t *testing.T) {
	ctx := &Context{Catalog: testDB(t)}
	r := evalOK(t, ctx, joinOn(algebra.InnerJoin))
	if len(r.Rows) != 1 {
		t.Fatalf("inner join rows = %d, want 1 (%v)", len(r.Rows), r.Rows)
	}
	if !r.Rows[0].Equal(rel.Row{rel.Int(1), rel.Int(10), rel.Int(1), rel.Int(10)}) {
		t.Errorf("row = %v", r.Rows[0])
	}
}

func TestLeftOuterJoin(t *testing.T) {
	ctx := &Context{Catalog: testDB(t)}
	r := evalOK(t, ctx, joinOn(algebra.LeftOuterJoin))
	if len(r.Rows) != 3 {
		t.Fatalf("lo rows = %d (%v)", len(r.Rows), r.Rows)
	}
	// The L row with a NULL join column must appear null-extended, not
	// matched (NULL=NULL is Unknown).
	for _, row := range r.Rows {
		if row[0].Equal(rel.Int(3)) && !row[2].IsNull() {
			t.Errorf("NULL join key must not match: %v", row)
		}
	}
}

func TestRightOuterJoin(t *testing.T) {
	ctx := &Context{Catalog: testDB(t)}
	r := evalOK(t, ctx, joinOn(algebra.RightOuterJoin))
	if len(r.Rows) != 3 {
		t.Fatalf("ro rows = %d (%v)", len(r.Rows), r.Rows)
	}
	unmatched := 0
	for _, row := range r.Rows {
		if row[0].IsNull() {
			unmatched++
		}
	}
	if unmatched != 2 {
		t.Errorf("unmatched right rows = %d, want 2", unmatched)
	}
}

func TestFullOuterJoin(t *testing.T) {
	ctx := &Context{Catalog: testDB(t)}
	r := evalOK(t, ctx, joinOn(algebra.FullOuterJoin))
	if len(r.Rows) != 5 {
		t.Fatalf("fo rows = %d (%v)", len(r.Rows), r.Rows)
	}
}

func TestSemiAndAntiJoin(t *testing.T) {
	ctx := &Context{Catalog: testDB(t)}
	semi := evalOK(t, ctx, joinOn(algebra.SemiJoin))
	if len(semi.Rows) != 1 || !semi.Rows[0][0].Equal(rel.Int(1)) {
		t.Errorf("semijoin = %v", semi.Rows)
	}
	if len(semi.Schema) != 2 {
		t.Errorf("semijoin schema = %v", semi.Schema)
	}
	anti := evalOK(t, ctx, joinOn(algebra.AntiJoin))
	if len(anti.Rows) != 2 {
		t.Errorf("antijoin = %v", anti.Rows)
	}
}

// TestOuterJoinsMatchMinUnionDefinition checks the paper's definitions:
// lo = ⋈ ⊕ L, ro = ⋈ ⊕ R, fo = ⋈ ⊕ L ⊕ R.
func TestOuterJoinsMatchMinUnionDefinition(t *testing.T) {
	ctx := &Context{Catalog: testDB(t)}
	inner := joinOn(algebra.InnerJoin)
	l := &algebra.TableRef{Name: "L"}
	r := &algebra.TableRef{Name: "R"}
	cases := []struct {
		kind algebra.JoinKind
		def  algebra.Expr
	}{
		{algebra.LeftOuterJoin, &algebra.MinUnion{Inputs: []algebra.Expr{inner, l}}},
		{algebra.RightOuterJoin, &algebra.MinUnion{Inputs: []algebra.Expr{inner, r}}},
		{algebra.FullOuterJoin, &algebra.MinUnion{Inputs: []algebra.Expr{inner, l, r}}},
	}
	for _, c := range cases {
		native := evalOK(t, ctx, joinOn(c.kind))
		viaDef := evalOK(t, ctx, c.def)
		// Align the min-union schema (L then R columns) with the join schema.
		var cols []algebra.ColRef
		for _, col := range native.Schema {
			cols = append(cols, algebra.Col(col.Table, col.Name))
		}
		aligned := evalOK(t, ctx, &algebra.Project{Input: c.def, Cols: cols})
		_ = viaDef
		if !sameRelation(native, aligned) {
			t.Errorf("%v: native %v != definition %v", c.kind, native.Rows, aligned.Rows)
		}
	}
}

func TestSelectAndProject(t *testing.T) {
	ctx := &Context{Catalog: testDB(t)}
	sel := &algebra.Select{Input: &algebra.TableRef{Name: "L"}, Pred: algebra.CmpConst("L", "a", algebra.OpGt, rel.Int(15))}
	r := evalOK(t, ctx, sel)
	if len(r.Rows) != 1 || !r.Rows[0][0].Equal(rel.Int(2)) {
		t.Errorf("select = %v", r.Rows)
	}
	// NULL > 15 is Unknown, so row 3 is filtered: null-rejecting behaviour.
	proj := &algebra.Project{Input: sel, Cols: []algebra.ColRef{algebra.Col("L", "a")}}
	p := evalOK(t, ctx, proj)
	if len(p.Schema) != 1 || len(p.Rows) != 1 || !p.Rows[0][0].Equal(rel.Int(20)) {
		t.Errorf("project = %v %v", p.Schema, p.Rows)
	}
}

func TestDeltaAndOldTableRef(t *testing.T) {
	cat := testDB(t)
	// Simulate an insertion of L(9,90) that has already been applied.
	must(t, cat.Insert("L", []rel.Row{{rel.Int(9), rel.Int(90)}}))
	delta := []rel.Row{{rel.Int(9), rel.Int(90)}}
	ctx := &Context{Catalog: cat, DeltaTable: "L", Delta: delta, Added: delta}

	d := evalOK(t, ctx, &algebra.DeltaRef{Name: "L"})
	if len(d.Rows) != 1 {
		t.Fatalf("delta rows = %d", len(d.Rows))
	}
	old := evalOK(t, ctx, &algebra.OldTableRef{Name: "L"})
	if len(old.Rows) != 3 {
		t.Fatalf("old L = %d rows, want 3", len(old.Rows))
	}
	for _, r := range old.Rows {
		if r[0].Equal(rel.Int(9)) {
			t.Error("old state must not contain the inserted row")
		}
	}

	// Deletion case: delete L(1,...) then reconstruct the old state.
	deleted, err := cat.Delete("L", [][]rel.Value{{rel.Int(1)}})
	must(t, err)
	ctx2 := &Context{Catalog: cat, DeltaTable: "L", Delta: deleted, Removed: deleted}
	old2 := evalOK(t, ctx2, &algebra.OldTableRef{Name: "L"})
	if len(old2.Rows) != 4 {
		t.Fatalf("old L after delete = %d rows, want 4", len(old2.Rows))
	}
	// Old state without a bound delta is just the current table.
	ctx3 := &Context{Catalog: cat}
	if got := evalOK(t, ctx3, &algebra.OldTableRef{Name: "L"}); len(got.Rows) != 3 {
		t.Errorf("old without delta = %d rows", len(got.Rows))
	}
}

func TestOuterUnionPadsSchemas(t *testing.T) {
	ctx := &Context{Catalog: testDB(t)}
	u := evalOK(t, ctx, &algebra.OuterUnion{Inputs: []algebra.Expr{
		&algebra.TableRef{Name: "L"},
		&algebra.TableRef{Name: "R"},
	}})
	if len(u.Schema) != 4 || len(u.Rows) != 6 {
		t.Fatalf("outer union: schema=%v rows=%d", u.Schema, len(u.Rows))
	}
	for _, r := range u.Rows {
		lNull := r[0].IsNull() && r[1].IsNull()
		rNull := r[2].IsNull() && r[3].IsNull()
		if lNull == rNull && !(r[1].IsNull() && !r[0].IsNull()) {
			// L row (3, NULL) has a NULL a-column but a real key.
			t.Errorf("row should be null-extended on exactly one side: %v", r)
		}
	}
}

func TestRemoveSubsumedAndDedup(t *testing.T) {
	if !subsumes(rel.Row{rel.Int(1), rel.Int(2)}, rel.Row{rel.Int(1), rel.Null}) {
		t.Error("fewer-nulls superset must subsume")
	}
	if subsumes(rel.Row{rel.Int(1), rel.Int(2)}, rel.Row{rel.Int(1), rel.Int(3)}) {
		t.Error("disagreeing rows must not subsume")
	}
	if subsumes(rel.Row{rel.Int(1), rel.Null}, rel.Row{rel.Int(1), rel.Null}) {
		t.Error("equal rows must not subsume (strictly fewer nulls required)")
	}
	if subsumes(rel.Row{rel.Int(1), rel.Null}, rel.Row{rel.Null, rel.Int(2)}) {
		t.Error("incomparable null patterns must not subsume")
	}
	rows := []rel.Row{
		{rel.Int(1), rel.Int(2)},
		{rel.Int(1), rel.Null},
		{rel.Null, rel.Int(2)},
		{rel.Null, rel.Int(9)},
	}
	out := removeSubsumed(rows)
	if len(out) != 2 {
		t.Errorf("removeSubsumed = %v", out)
	}
	d := dedup([]rel.Row{{rel.Int(1)}, {rel.Int(1)}, {rel.Null}, {rel.Null}})
	if len(d) != 2 {
		t.Errorf("dedup = %v", d)
	}
}

func TestNullIfOperator(t *testing.T) {
	ctx := &Context{Catalog: testDB(t)}
	// Null out R's columns on every row of L⋈R... use lo so some rows fail.
	lo := joinOn(algebra.LeftOuterJoin)
	nullif := &algebra.NullIf{
		Input:      lo,
		Unless:     algebra.CmpConst("R", "a", algebra.OpEq, rel.Int(10)),
		NullTables: []string{"R"},
	}
	r := evalOK(t, ctx, nullif)
	for _, row := range r.Rows {
		keep := !row[3].IsNull() && row[3].Equal(rel.Int(10))
		if keep {
			if row[2].IsNull() {
				t.Errorf("row satisfying Unless was nulled: %v", row)
			}
		} else if !row[2].IsNull() || !row[3].IsNull() {
			t.Errorf("row failing Unless was not nulled: %v", row)
		}
	}
}

func TestCondense(t *testing.T) {
	ctx := &Context{Catalog: testDB(t)}
	// λ then condense on the left key: duplicates and subsumed null rows
	// within a left-key group collapse.
	lo := joinOn(algebra.LeftOuterJoin)
	nulled := &algebra.NullIf{Input: lo, Unless: algebra.CmpConst("R", "a", algebra.OpEq, rel.Int(-1)), NullTables: []string{"R"}}
	cond := &algebra.Condense{Input: nulled, GroupKey: []algebra.ColRef{algebra.Col("L", "lk")}}
	r := evalOK(t, ctx, cond)
	// Every row got nulled on R, so each L row collapses to one row.
	if len(r.Rows) != 3 {
		t.Errorf("condensed rows = %d (%v)", len(r.Rows), r.Rows)
	}
	// Global condense (no group key) over the same input gives the same
	// result here.
	global := evalOK(t, ctx, &algebra.Condense{Input: nulled})
	if !sameRelation(r, global) {
		t.Errorf("global condense differs: %v vs %v", r.Rows, global.Rows)
	}
}

func TestGroupBy(t *testing.T) {
	ctx := &Context{Catalog: testDB(t)}
	g := &algebra.GroupBy{
		Input:     &algebra.TableRef{Name: "L"},
		GroupCols: nil,
		Aggs: []algebra.Aggregate{
			{Func: algebra.AggCount, Name: "cnt"},
			{Func: algebra.AggCount, Col: algebra.Col("L", "a"), Name: "cnt_a"},
			{Func: algebra.AggSum, Col: algebra.Col("L", "a"), Name: "sum_a"},
			{Func: algebra.AggAvg, Col: algebra.Col("L", "a"), Name: "avg_a"},
		},
	}
	r := evalOK(t, ctx, g)
	if len(r.Rows) != 1 {
		t.Fatalf("groups = %d", len(r.Rows))
	}
	row := r.Rows[0]
	if !row[0].Equal(rel.Int(3)) || !row[1].Equal(rel.Int(2)) || !row[2].Equal(rel.Int(30)) || !row[3].Equal(rel.Float(15)) {
		t.Errorf("aggregates = %v", row)
	}
	// Group by key: three singleton groups; SUM over the NULL-only group is
	// NULL.
	g2 := &algebra.GroupBy{
		Input:     &algebra.TableRef{Name: "L"},
		GroupCols: []algebra.ColRef{algebra.Col("L", "lk")},
		Aggs:      []algebra.Aggregate{{Func: algebra.AggSum, Col: algebra.Col("L", "a"), Name: "s"}},
	}
	r2 := evalOK(t, ctx, g2)
	if len(r2.Rows) != 3 {
		t.Fatalf("groups = %d", len(r2.Rows))
	}
	for _, row := range r2.Rows {
		if row[0].Equal(rel.Int(3)) && !row[1].IsNull() {
			t.Errorf("SUM over all-NULL group must be NULL: %v", row)
		}
	}
}

// TestIndexVsHashVsNestedLoop checks that the three join strategies agree
// on random data for every join kind.
func TestIndexVsHashVsNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		cat := rel.NewCatalog()
		if _, err := cat.CreateTable("A", []rel.Column{{Name: "k", Kind: rel.KindInt}, {Name: "v", Kind: rel.KindInt}}, "k"); err != nil {
			t.Fatal(err)
		}
		if _, err := cat.CreateTable("B", []rel.Column{{Name: "k", Kind: rel.KindInt}, {Name: "v", Kind: rel.KindInt}}, "k"); err != nil {
			t.Fatal(err)
		}
		var aRows, bRows []rel.Row
		for i := 0; i < 10+rng.Intn(10); i++ {
			aRows = append(aRows, rel.Row{rel.Int(int64(i)), randNullableInt(rng)})
		}
		for i := 0; i < 10+rng.Intn(10); i++ {
			bRows = append(bRows, rel.Row{rel.Int(int64(i)), randNullableInt(rng)})
		}
		must(t, cat.Insert("A", aRows))
		must(t, cat.Insert("B", bRows))
		// Secondary index on B.v for the INL path.
		if _, err := cat.CreateIndex("B", "b_v", "v"); err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Catalog: cat}
		for _, kind := range []algebra.JoinKind{algebra.InnerJoin, algebra.LeftOuterJoin, algebra.SemiJoin, algebra.AntiJoin} {
			// Equijoin on the indexed column: eligible for INL.
			indexed := &algebra.Join{Kind: kind, Left: &algebra.TableRef{Name: "A"}, Right: &algebra.TableRef{Name: "B"}, Pred: algebra.Eq("A", "v", "B", "v")}
			got := evalOK(t, ctx, indexed)
			// Force hash by wrapping the right side in a no-op dedup (B has a
			// key, so dedup is identity but defeats the TableRef pattern).
			hashed := &algebra.Join{Kind: kind, Left: &algebra.TableRef{Name: "A"}, Right: &algebra.Dedup{Input: &algebra.TableRef{Name: "B"}}, Pred: algebra.Eq("A", "v", "B", "v")}
			want := evalOK(t, ctx, hashed)
			if !sameRelation(got, want) {
				t.Fatalf("trial %d kind %v: INL %v != hash %v", trial, kind, got.Rows, want.Rows)
			}
			// Nested loop via a non-equi predicate on both, compare hash off.
			nl := &algebra.Join{Kind: kind, Left: &algebra.TableRef{Name: "A"}, Right: &algebra.TableRef{Name: "B"},
				Pred: algebra.Cmp{Left: algebra.ColOperand("A", "v"), Op: algebra.OpLe, Right: algebra.ColOperand("B", "v")}}
			_ = evalOK(t, ctx, nl) // must not panic; semantics covered below
		}
		// Unique-key probe path: join on B.k (the primary key).
		inl := &algebra.Join{Kind: algebra.InnerJoin, Left: &algebra.TableRef{Name: "A"}, Right: &algebra.TableRef{Name: "B"}, Pred: algebra.Eq("A", "v", "B", "k")}
		hash := &algebra.Join{Kind: algebra.InnerJoin, Left: &algebra.TableRef{Name: "A"}, Right: &algebra.Dedup{Input: &algebra.TableRef{Name: "B"}}, Pred: algebra.Eq("A", "v", "B", "k")}
		if !sameRelation(evalOK(t, ctx, inl), evalOK(t, ctx, hash)) {
			t.Fatalf("trial %d: key-probe INL differs from hash join", trial)
		}
	}
}

func randNullableInt(rng *rand.Rand) rel.Value {
	if rng.Intn(5) == 0 {
		return rel.Null
	}
	return rel.Int(int64(rng.Intn(6)))
}

// TestNestedLoopThetaJoin pins down non-equi join semantics.
func TestNestedLoopThetaJoin(t *testing.T) {
	ctx := &Context{Catalog: testDB(t)}
	theta := &algebra.Join{
		Kind: algebra.InnerJoin, Left: &algebra.TableRef{Name: "L"}, Right: &algebra.TableRef{Name: "R"},
		Pred: algebra.Cmp{Left: algebra.ColOperand("L", "a"), Op: algebra.OpLt, Right: algebra.ColOperand("R", "a")},
	}
	r := evalOK(t, ctx, theta)
	// L(1,10): matches R.a in {99,40} → 2; L(2,20): {99,40} → 2; L(3,NULL): 0.
	if len(r.Rows) != 4 {
		t.Errorf("theta join rows = %d (%v)", len(r.Rows), r.Rows)
	}
}

func TestSelectOverIndexedTableProbe(t *testing.T) {
	// INL through a Select wrapper must apply the selection to probed rows.
	ctx := &Context{Catalog: testDB(t)}
	j := &algebra.Join{
		Kind: algebra.InnerJoin,
		Left: &algebra.TableRef{Name: "L"},
		Right: &algebra.Select{
			Input: &algebra.TableRef{Name: "R"},
			Pred:  algebra.CmpConst("R", "rk", algebra.OpGt, rel.Int(1)),
		},
		Pred: algebra.Eq("L", "a", "R", "a"),
	}
	// Without an index on R.a this goes through hash; add one and compare.
	want := evalOK(t, ctx, j)
	if _, err := ctx.Catalog.CreateIndex("R", "r_a", "a"); err != nil {
		t.Fatal(err)
	}
	got := evalOK(t, ctx, j)
	if !sameRelation(got, want) {
		t.Errorf("indexed select-probe differs: %v vs %v", got.Rows, want.Rows)
	}
	// The only L-R match on a is (1,10)-(1,10) whose rk=1 fails the select.
	if len(got.Rows) != 0 {
		t.Errorf("rows = %v, want none", got.Rows)
	}
}

func TestEvalErrors(t *testing.T) {
	ctx := &Context{Catalog: testDB(t)}
	if _, err := Eval(ctx, &algebra.TableRef{Name: "nosuch"}); err == nil {
		t.Error("unknown table")
	}
	if _, err := Eval(ctx, &algebra.DeltaRef{Name: "nosuch"}); err == nil {
		t.Error("unknown delta table")
	}
	if _, err := Eval(ctx, &algebra.OldTableRef{Name: "nosuch"}); err == nil {
		t.Error("unknown old table")
	}
	if _, err := Eval(ctx, &algebra.Select{Input: &algebra.TableRef{Name: "L"}, Pred: algebra.Eq("X", "y", "L", "a")}); err == nil {
		t.Error("bad predicate column")
	}
	if _, err := Eval(ctx, &algebra.Project{Input: &algebra.TableRef{Name: "L"}, Cols: []algebra.ColRef{algebra.Col("X", "y")}}); err == nil {
		t.Error("bad projected column")
	}
}
