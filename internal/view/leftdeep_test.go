package view

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/exec"
	"ojv/internal/fixture"
	"ojv/internal/rel"
)

// checkLeftDeepEquivalence evaluates the bushy and left-deep ΔV^D trees
// over a random delta and compares the results as multisets.
func checkLeftDeepEquivalence(cat *rel.Catalog, expr algebra.Expr, table string, rng *rand.Rand) error {
	bushy, err := BuildPrimaryDelta(cat, expr, table, false, false)
	if err != nil {
		return err
	}
	leftDeep, err := BuildPrimaryDelta(cat, expr, table, true, false)
	if err != nil {
		return err
	}
	if !IsLeftDeep(leftDeep) {
		return fmt.Errorf("conversion did not reach a left-deep tree:\n%s", algebra.FormatTree(leftDeep))
	}
	var delta []rel.Row
	for i := 0; i < 1+rng.Intn(5); i++ {
		delta = append(delta, rtRow(rng, int64(5000+i)))
	}
	ctx := &exec.Context{Catalog: cat, DeltaTable: table, Delta: delta, Added: delta}
	a, err := exec.Eval(ctx, bushy)
	if err != nil {
		return fmt.Errorf("bushy eval: %w", err)
	}
	b, err := exec.Eval(ctx, leftDeep)
	if err != nil {
		return fmt.Errorf("left-deep eval: %w", err)
	}
	return sameMultiset(a, b)
}

// sameMultiset compares two relations up to row order, aligning schemas by
// column name.
func sameMultiset(a, b exec.Relation) error {
	mapping := make([]int, len(a.Schema))
	for i, c := range a.Schema {
		p := b.Schema.IndexOf(c.Table, c.Name)
		if p < 0 {
			return fmt.Errorf("column %s missing from left-deep schema", c.QualifiedName())
		}
		mapping[i] = p
	}
	if len(a.Schema) != len(b.Schema) {
		return fmt.Errorf("schema widths differ: %d vs %d", len(a.Schema), len(b.Schema))
	}
	enc := func(rows []rel.Row, reorder bool) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			row := r
			if reorder {
				row = make(rel.Row, len(r))
				for j, src := range mapping {
					row[j] = r[src]
				}
			}
			out[i] = rel.EncodeValues(row...)
		}
		sort.Strings(out)
		return out
	}
	ka := enc(a.Rows, false)
	kb := enc(b.Rows, true)
	if len(ka) != len(kb) {
		return fmt.Errorf("row counts differ: bushy %d vs left-deep %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Errorf("row multiset differs at %d", i)
		}
	}
	return nil
}

// TestLeftDeepEquivalenceV1 pins the equivalence on the paper's running
// example for every updated table, and on the V2 shape with selections.
func TestLeftDeepEquivalenceV1(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cat := mustRSTU(t, false)
	for _, table := range []string{"R", "S", "T", "U"} {
		bushy, err := BuildPrimaryDelta(cat, fixture.V1Expr(false), table, false, false)
		if err != nil {
			t.Fatal(err)
		}
		leftDeep, err := BuildPrimaryDelta(cat, fixture.V1Expr(false), table, true, false)
		if err != nil {
			t.Fatal(err)
		}
		var delta []rel.Row
		for i := 0; i < 5; i++ {
			cols := 3
			if table == "S" {
				cols = 2
			}
			row := rel.Row{rel.Int(int64(7000 + i))}
			for c := 1; c < cols; c++ {
				row = append(row, rel.Int(rng.Int63n(17)))
			}
			delta = append(delta, row)
		}
		ctx := &exec.Context{Catalog: cat, DeltaTable: table, Delta: delta, Added: delta}
		a, err := exec.Eval(ctx, bushy)
		if err != nil {
			t.Fatal(err)
		}
		b, err := exec.Eval(ctx, leftDeep)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameMultiset(a, b); err != nil {
			t.Errorf("table %s: %v", table, err)
		}
	}
}

// TestRule1SelectUnderOuterJoin exercises rule 1 specifically: a selection
// over a complex right operand of a left outer join must be pulled through
// a null-if + condense.
func TestRule1SelectUnderOuterJoin(t *testing.T) {
	cat := mustRSTU(t, false)
	// View: T lo (σ[S.b<9](S fo R)) — after commuting for updates to T, the
	// right operand is a selection over a join.
	expr := &algebra.Join{
		Kind: algebra.LeftOuterJoin,
		Left: &algebra.TableRef{Name: "T"},
		Right: &algebra.Select{
			Input: &algebra.Join{Kind: algebra.FullOuterJoin, Left: &algebra.TableRef{Name: "S"}, Right: &algebra.TableRef{Name: "R"}, Pred: algebra.Eq("S", "b", "R", "b")},
			Pred:  algebra.CmpConst("S", "b", algebra.OpLt, rel.Int(9)),
		},
		Pred: algebra.Eq("T", "c", "R", "c"),
	}
	rng := rand.New(rand.NewSource(3))
	if err := checkLeftDeepEquivalence(cat, expr, "T", rng); err != nil {
		t.Fatal(err)
	}
	// And the view maintains correctly end to end.
	def, err := Define(cat, "rule1", expr, fixture.AllColumns(cat, "T", "S", "R"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(def, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	rows := []rel.Row{{rel.Int(9000), rel.Int(1), rel.Int(2)}, {rel.Int(9001), rel.Int(3), rel.Int(4)}}
	if err := cat.Insert("T", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OnInsert("T", rows); err != nil {
		t.Fatal(err)
	}
	if err := Check(m); err != nil {
		t.Fatal(err)
	}
}

// TestRules4And5RightOperandShapes exercises rules 4 and 5: right operands
// whose top operator is a right outer join or an inner join require the
// null-if fix-up.
func TestRules4And5RightOperandShapes(t *testing.T) {
	cat := mustRSTU(t, false)
	rng := rand.New(rand.NewSource(4))
	for _, kind := range []algebra.JoinKind{algebra.RightOuterJoin, algebra.InnerJoin} {
		// View: T lo (S <kind> R) with the main-path predicate referencing
		// S — the right operand's preserved/left input — so rules 4 and 5
		// apply as-is (a predicate on R would commute the ro into an lo and
		// take rule 3 instead).
		expr := &algebra.Join{
			Kind: algebra.LeftOuterJoin,
			Left: &algebra.TableRef{Name: "T"},
			Right: &algebra.Join{
				Kind: kind, Left: &algebra.TableRef{Name: "S"}, Right: &algebra.TableRef{Name: "R"},
				Pred: algebra.Eq("S", "b", "R", "b"),
			},
			Pred: algebra.Eq("T", "c", "S", "b"),
		}
		if err := checkLeftDeepEquivalence(cat, expr, "T", rng); err != nil {
			t.Fatalf("kind %s: %v", kind, err)
		}
		ld, err := BuildPrimaryDelta(cat, expr, "T", true, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ld.(*algebra.Condense); !ok {
			t.Errorf("kind %s: expected a condense at the root, got %T", kind, ld)
		}
	}
}
