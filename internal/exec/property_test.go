package exec

import (
	"math/rand"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/rel"
)

// Property tests for the algebraic laws the paper's derivations rest on:
// minimum union is commutative and associative (Section 2.1), removal of
// subsumed tuples is idempotent, and subsumption is antisymmetric.

// randRelation builds a relation over table t's two-column nullable schema.
func randRelation(rng *rand.Rand, table string, n int) Relation {
	sch := rel.Schema{
		{Table: table, Name: "x", Kind: rel.KindInt},
		{Table: table, Name: "y", Kind: rel.KindInt},
	}
	r := Relation{Schema: sch}
	for i := 0; i < n; i++ {
		r.Rows = append(r.Rows, rel.Row{randNullable(rng), randNullable(rng)})
	}
	return r
}

func randNullable(rng *rand.Rand) rel.Value {
	if rng.Intn(3) == 0 {
		return rel.Null
	}
	return rel.Int(int64(rng.Intn(4)))
}

// evalRels evaluates an expression over bound relations only.
func evalRels(t *testing.T, rels map[string]Relation, e algebra.Expr) Relation {
	t.Helper()
	ctx := &Context{Catalog: rel.NewCatalog(), Rels: rels}
	out, err := Eval(ctx, e)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return out
}

func ref(name string, tables ...string) algebra.Expr {
	return &algebra.RelRef{Name: name, TableNames: tables}
}

func TestMinUnionCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		rels := map[string]Relation{
			"A": randRelation(rng, "t", rng.Intn(8)),
			"B": randRelation(rng, "t", rng.Intn(8)),
		}
		ab := evalRels(t, rels, &algebra.MinUnion{Inputs: []algebra.Expr{ref("A", "t"), ref("B", "t")}})
		ba := evalRels(t, rels, &algebra.MinUnion{Inputs: []algebra.Expr{ref("B", "t"), ref("A", "t")}})
		if !sameRelation(ab, ba) {
			t.Fatalf("trial %d: A⊕B=%v, B⊕A=%v", trial, ab.Rows, ba.Rows)
		}
	}
}

func TestMinUnionAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		rels := map[string]Relation{
			"A": randRelation(rng, "t", rng.Intn(6)),
			"B": randRelation(rng, "t", rng.Intn(6)),
			"C": randRelation(rng, "t", rng.Intn(6)),
		}
		left := evalRels(t, rels, &algebra.MinUnion{Inputs: []algebra.Expr{
			&algebra.MinUnion{Inputs: []algebra.Expr{ref("A", "t"), ref("B", "t")}}, ref("C", "t")}})
		right := evalRels(t, rels, &algebra.MinUnion{Inputs: []algebra.Expr{
			ref("A", "t"), &algebra.MinUnion{Inputs: []algebra.Expr{ref("B", "t"), ref("C", "t")}}}})
		flat := evalRels(t, rels, &algebra.MinUnion{Inputs: []algebra.Expr{ref("A", "t"), ref("B", "t"), ref("C", "t")}})
		if !sameRelation(left, right) || !sameRelation(left, flat) {
			t.Fatalf("trial %d: (A⊕B)⊕C=%v A⊕(B⊕C)=%v A⊕B⊕C=%v", trial, left.Rows, right.Rows, flat.Rows)
		}
	}
}

func TestRemoveSubsumedIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		r := randRelation(rng, "t", rng.Intn(10))
		once := removeSubsumed(r.Rows)
		twice := removeSubsumed(once)
		if len(once) != len(twice) {
			t.Fatalf("trial %d: ↓ not idempotent: %d vs %d rows", trial, len(once), len(twice))
		}
		// No remaining row subsumes another.
		for i, a := range once {
			for j, b := range once {
				if i != j && subsumes(a, b) {
					t.Fatalf("trial %d: %v subsumes %v after ↓", trial, a, b)
				}
			}
		}
	}
}

func TestSubsumptionAntisymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 500; trial++ {
		a := rel.Row{randNullable(rng), randNullable(rng), randNullable(rng)}
		b := rel.Row{randNullable(rng), randNullable(rng), randNullable(rng)}
		if subsumes(a, b) && subsumes(b, a) {
			t.Fatalf("mutual subsumption: %v and %v", a, b)
		}
		if subsumes(a, a) {
			t.Fatalf("self subsumption: %v", a)
		}
	}
}

// TestOuterUnionCounts checks ⊎ is a plain (padding) union: row counts add
// up and no rows are deduplicated.
func TestOuterUnionCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		a := randRelation(rng, "t", rng.Intn(8))
		b := randRelation(rng, "u", rng.Intn(8))
		rels := map[string]Relation{"A": a, "B": b}
		u := evalRels(t, rels, &algebra.OuterUnion{Inputs: []algebra.Expr{ref("A", "t"), ref("B", "u")}})
		if len(u.Rows) != len(a.Rows)+len(b.Rows) {
			t.Fatalf("⊎ rows = %d, want %d", len(u.Rows), len(a.Rows)+len(b.Rows))
		}
		if len(u.Schema) != 4 {
			t.Fatalf("⊎ schema = %v", u.Schema)
		}
	}
}

// TestPadOperator checks the padding operator used by change propagation.
func TestPadOperator(t *testing.T) {
	cat := rel.NewCatalog()
	if _, err := cat.CreateTable("u", []rel.Column{{Name: "k", Kind: rel.KindInt}}, "k"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	a := randRelation(rng, "t", 5)
	ctx := &Context{Catalog: cat, Rels: map[string]Relation{"A": a}}
	out, err := Eval(ctx, &algebra.Pad{Input: ref("A", "t"), Tables_: []string{"u"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Schema) != 3 || len(out.Rows) != 5 {
		t.Fatalf("pad: schema=%v rows=%d", out.Schema, len(out.Rows))
	}
	for _, r := range out.Rows {
		if !r[2].IsNull() {
			t.Fatalf("padded column must be NULL: %v", r)
		}
	}
	// Padded columns are nullable in the schema.
	if out.Schema[2].NotNull {
		t.Error("padded column must not be NOT NULL")
	}
	if _, err := Eval(ctx, &algebra.Pad{Input: ref("A", "t"), Tables_: []string{"nosuch"}}); err == nil {
		t.Error("pad with unknown table must fail")
	}
}

// TestCondenseGroupedMatchesGlobal checks that grouping by a key that
// determines the group does not change Condense semantics, on random data
// where the group key is the first column.
func TestCondenseGroupedMatchesGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		// Rows share a group when their first column matches; make the
		// first column non-null so grouped condense is sound.
		sch := rel.Schema{
			{Table: "t", Name: "g", Kind: rel.KindInt},
			{Table: "t", Name: "y", Kind: rel.KindInt},
		}
		r := Relation{Schema: sch}
		for i := 0; i < rng.Intn(12); i++ {
			r.Rows = append(r.Rows, rel.Row{rel.Int(int64(rng.Intn(3))), randNullable(rng)})
		}
		rels := map[string]Relation{"A": r}
		grouped := evalRels(t, rels, &algebra.Condense{Input: ref("A", "t"), GroupKey: []algebra.ColRef{algebra.Col("t", "g")}})
		global := evalRels(t, rels, &algebra.Condense{Input: ref("A", "t")})
		if !sameRelation(grouped, global) {
			t.Fatalf("trial %d: grouped=%v global=%v", trial, grouped.Rows, global.Rows)
		}
	}
}

// TestHashJoinAgainstNestedLoop checks, for every join kind over small
// relations dense in NULLs and duplicates, that a RelRef ⋈ RelRef join on an
// equality (the hash join) agrees with the same join spelled without an
// equi-conjunct (the nested loop).
func TestHashJoinAgainstNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		a := randRelation(rng, "t", 3+rng.Intn(6))
		b := randRelation(rng, "u", 3+rng.Intn(6))
		for _, kind := range allJoinKinds {
			hashed, err := joinRels(kind, a, b, algebra.Eq("t", "x", "u", "x"))
			if err != nil {
				t.Fatal(err)
			}
			nested, err := joinRels(kind, a, b, eqAsRange())
			if err != nil {
				t.Fatal(err)
			}
			if !sameRelation(hashed, nested) {
				t.Fatalf("trial %d kind %s: %v vs %v", trial, kind, hashed.Rows, nested.Rows)
			}
		}
	}
}
