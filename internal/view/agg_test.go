package view

import (
	"fmt"
	"math/rand"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/fixture"
	"ojv/internal/rel"
)

// v2AggSpec aggregates V2 per customer: number of rows, number of orders,
// and the sum/avg of order amounts.
func v2AggSpec() AggSpec {
	return AggSpec{
		GroupCols: []algebra.ColRef{algebra.Col("C", "ck")},
		Aggs: []algebra.Aggregate{
			{Func: algebra.AggCount, Name: "rows"},
			{Func: algebra.AggCount, Col: algebra.Col("O", "ok"), Name: "orders"},
			{Func: algebra.AggSum, Col: algebra.Col("O", "a"), Name: "sum_a"},
			{Func: algebra.AggAvg, Col: algebra.Col("O", "a"), Name: "avg_a"},
		},
	}
}

func newAggMaintainer(t testing.TB, withFK bool) (*rel.Catalog, *Maintainer) {
	t.Helper()
	cat, err := fixture.COL(fixture.COLOptions{Seed: 11, WithFK: withFK})
	if err != nil {
		t.Fatal(err)
	}
	def, err := DefineAggregate(cat, "v2agg", fixture.V2Expr(), v2AggSpec())
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
	if err := Check(m); err != nil {
		t.Fatalf("initial aggregate materialization: %v", err)
	}
	return cat, m
}

func TestAggViewMaintenance(t *testing.T) {
	for _, withFK := range []bool{false, true} {
		t.Run(fmt.Sprintf("fk=%v", withFK), func(t *testing.T) {
			cat, m := newAggMaintainer(t, withFK)
			rng := rand.New(rand.NewSource(21))
			// Insert customers, orders and lineitems in turn, checking the
			// groups after each batch.
			var cRows, oRows, lRows []rel.Row
			for i := 0; i < 10; i++ {
				cRows = append(cRows, rel.Row{rel.Int(int64(2000 + i)), rel.Int(rng.Int63n(10))})
				oRows = append(oRows, rel.Row{rel.Int(int64(2000 + i)), rel.Int(rng.Int63n(60)), rel.Int(rng.Int63n(10))})
				lRows = append(lRows, rel.Row{rel.Int(int64(2000 + i)), rel.Int(rng.Int63n(60))})
			}
			for _, step := range []struct {
				table string
				rows  []rel.Row
			}{{"C", cRows}, {"O", oRows}, {"L", lRows}} {
				if err := cat.Insert(step.table, step.rows); err != nil {
					t.Fatal(err)
				}
				if _, err := m.OnInsert(step.table, step.rows); err != nil {
					t.Fatal(err)
				}
				if err := Check(m); err != nil {
					t.Fatalf("after insert %s: %v", step.table, err)
				}
			}
			// Updates in place: a row keeps its key, so the rows it joins
			// keep their partner across the removed and the added half.
			for _, table := range []string{"C", "O"} {
				rows := cat.Table(table).Rows()
				rel.SortRows(rows)
				var olds, news []rel.Row
				for _, old := range rows[:5] {
					row := old.Clone()
					row[len(row)-1] = rel.Int(1 + rng.Int63n(9))
					if _, err := cat.Update(table, old[:1], row); err != nil {
						t.Fatal(err)
					}
					olds, news = append(olds, old), append(news, row)
				}
				if _, err := m.OnModify(table, olds, news); err != nil {
					t.Fatal(err)
				}
				if err := Check(m); err != nil {
					t.Fatalf("after update %s: %v", table, err)
				}
			}
			for _, table := range []string{"L", "O", "C"} {
				keys := deletableKeys(t, cat, table, 6, withFK)
				deleted, err := cat.Delete(table, keys)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.OnDelete(table, deleted); err != nil {
					t.Fatal(err)
				}
				if err := Check(m); err != nil {
					t.Fatalf("after delete %s: %v", table, err)
				}
			}
		})
	}
}

// TestAggGroupLifecycle pins down the Section 3.3 bookkeeping: a group's
// row appears when its first contributing tuple arrives and disappears when
// the row count reaches zero; aggregates go to NULL when their inputs
// vanish while the group itself survives.
func TestAggGroupLifecycle(t *testing.T) {
	cat := rel.NewCatalog()
	if _, err := cat.CreateTable("A", []rel.Column{{Name: "ak", Kind: rel.KindInt}}, "ak"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("B", []rel.Column{{Name: "bk", Kind: rel.KindInt}, {Name: "afk", Kind: rel.KindInt, NotNull: true}, {Name: "v", Kind: rel.KindInt}}, "bk"); err != nil {
		t.Fatal(err)
	}
	expr := &algebra.Join{
		Kind: algebra.LeftOuterJoin, Left: &algebra.TableRef{Name: "A"}, Right: &algebra.TableRef{Name: "B"},
		Pred: algebra.Eq("A", "ak", "B", "afk"),
	}
	def, err := DefineAggregate(cat, "agg", expr, AggSpec{
		GroupCols: []algebra.ColRef{algebra.Col("A", "ak")},
		Aggs: []algebra.Aggregate{
			{Func: algebra.AggCount, Name: "n"},
			{Func: algebra.AggSum, Col: algebra.Col("B", "v"), Name: "sv"},
		},
	})
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
	ins := func(table string, rows ...rel.Row) {
		t.Helper()
		if err := cat.Insert(table, rows); err != nil {
			t.Fatal(err)
		}
		if _, err := m.OnInsert(table, rows); err != nil {
			t.Fatal(err)
		}
		if err := Check(m); err != nil {
			t.Fatal(err)
		}
	}
	del := func(table string, keys ...[]rel.Value) {
		t.Helper()
		deleted, err := cat.Delete(table, keys)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.OnDelete(table, deleted); err != nil {
			t.Fatal(err)
		}
		if err := Check(m); err != nil {
			t.Fatal(err)
		}
	}

	ins("A", rel.Row{rel.Int(1)})
	if m.Aggregated().Len() != 1 {
		t.Fatalf("groups = %d, want 1", m.Aggregated().Len())
	}
	// Orphan A row: SUM over no B inputs is NULL.
	rows := m.Aggregated().Rows()
	if !rows[0][2].IsNull() {
		t.Errorf("SUM over orphan group should be NULL: %v", rows[0])
	}
	// Two matching B rows: count 2, sum 30.
	ins("B", rel.Row{rel.Int(10), rel.Int(1), rel.Int(10)}, rel.Row{rel.Int(11), rel.Int(1), rel.Int(20)})
	rows = m.Aggregated().Rows()
	if !rows[0][1].Equal(rel.Int(2)) || !rows[0][2].Equal(rel.Int(30)) {
		t.Errorf("after B inserts: %v", rows[0])
	}
	if nn, ok := m.Aggregated().NotNullCount(rel.Row{rel.Int(1)}, "B"); !ok || nn != 2 {
		t.Errorf("not-null count for B = %d, %v", nn, ok)
	}
	// Delete both B rows: the group survives (the orphan A row returns) and
	// the SUM goes back to NULL — the not-null count hitting zero.
	del("B", []rel.Value{rel.Int(10)}, []rel.Value{rel.Int(11)})
	rows = m.Aggregated().Rows()
	if len(rows) != 1 || !rows[0][2].IsNull() {
		t.Errorf("after B deletes: %v", rows)
	}
	if nn, _ := m.Aggregated().NotNullCount(rel.Row{rel.Int(1)}, "B"); nn != 0 {
		t.Errorf("not-null count should be 0, got %d", nn)
	}
	// Delete the A row: the group disappears.
	del("A", []rel.Value{rel.Int(1)})
	if m.Aggregated().Len() != 0 {
		t.Errorf("group should be gone, have %d", m.Aggregated().Len())
	}
}

func TestDefineAggregateValidation(t *testing.T) {
	cat, err := fixture.COL(fixture.COLOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// MIN/MAX-style aggregates don't exist in our enum; an unknown func
	// value must be rejected.
	bad := AggSpec{GroupCols: []algebra.ColRef{algebra.Col("C", "ck")},
		Aggs: []algebra.Aggregate{{Func: algebra.AggFunc(99), Name: "x", Col: algebra.Col("O", "a")}}}
	if _, err := DefineAggregate(cat, "bad", fixture.V2Expr(), bad); err == nil {
		t.Error("unknown aggregate must be rejected")
	}
	if _, err := DefineAggregate(cat, "bad", fixture.V2Expr(), AggSpec{}); err == nil {
		t.Error("missing group columns must be rejected")
	}
	spec := v2AggSpec()
	spec.GroupCols = []algebra.ColRef{algebra.Col("C", "nosuch")}
	if _, err := DefineAggregate(cat, "bad", fixture.V2Expr(), spec); err == nil {
		t.Error("unknown group column must be rejected")
	}
	spec = v2AggSpec()
	spec.Aggs[0].Name = spec.Aggs[1].Name
	if _, err := DefineAggregate(cat, "bad", fixture.V2Expr(), spec); err == nil {
		t.Error("duplicate aggregate names must be rejected")
	}
	spec = v2AggSpec()
	spec.Aggs[2].Col = algebra.Col("O", "nosuch")
	if _, err := DefineAggregate(cat, "bad", fixture.V2Expr(), spec); err == nil {
		t.Error("unknown aggregate column must be rejected")
	}
}
