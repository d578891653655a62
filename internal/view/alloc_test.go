package view

import (
	"fmt"
	"runtime"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/rel"
)

// TestViewApplyAllocBudget bounds what the stored view itself allocates per
// row applied: on the benchmark's multi-view shape — three tables of three
// integer columns, a lo (b fo c) — 2 000 view rows are inserted through one
// changeset and deleted through the next, and a cycle may allocate, per
// row, the two view-key strings (one per mutation) and the undo log's
// amortized growth. The store before this one also encoded a table key per
// source table per mutation, encoded the view key twice per insert and kept
// a one-entry set per distinct table key: 22.5 objects and 1.35 kB per row
// on this test, against 2 objects and 0.41 kB (of which the undo log is
// 0.34).
func TestViewApplyAllocBudget(t *testing.T) {
	const n = 2000
	cat := rel.NewCatalog()
	var out []algebra.ColRef
	for _, name := range []string{"a", "b", "c"} {
		cols := []rel.Column{{Name: name + "k", Kind: rel.KindInt}, {Name: name + "j", Kind: rel.KindInt}, {Name: name + "v", Kind: rel.KindInt}}
		if _, err := cat.CreateTable(name, cols, name+"k"); err != nil {
			t.Fatal(err)
		}
		for _, c := range cols {
			out = append(out, algebra.Col(name, c.Name))
		}
	}
	expr := &algebra.Join{
		Kind: algebra.LeftOuterJoin,
		Left: &algebra.TableRef{Name: "a"},
		Right: &algebra.Join{Kind: algebra.FullOuterJoin, Left: &algebra.TableRef{Name: "b"}, Right: &algebra.TableRef{Name: "c"},
			Pred: algebra.Eq("b", "bj", "c", "cj")},
		Pred: algebra.Eq("a", "aj", "b", "bj"),
	}
	def, err := Define(cat, "apply", expr, out)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(def, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mv := m.Materialized()
	// Every a tuple meets four (b, c) pairs, as a join attribute spanning a
	// small table does.
	rows := make([]rel.Row, n)
	for i := range rows {
		a, bc := int64(i/4), int64(i)
		rows[i] = rel.Row{rel.Int(a), rel.Int(a), rel.Int(a % 100), rel.Int(bc), rel.Int(a), rel.Int(1), rel.Int(bc), rel.Int(a), rel.Int(2)}
	}
	cycle := func() {
		cs := m.Begin()
		for _, r := range rows {
			if err := cs.insertRow("primary-insert", mv.viewKey(r), r); err != nil {
				t.Fatal(err)
			}
		}
		m.CommitStaged(cs, &MaintStats{})
		cs = m.Begin()
		for _, r := range rows {
			if _, ok, err := cs.deleteKey("primary-delete", mv.viewKey(r)); err != nil || !ok {
				t.Fatal(fmt.Errorf("delete of %s: %v %v", r, ok, err))
			}
		}
		m.CommitStaged(cs, &MaintStats{})
	}
	cycle() // the slab and the maps reach their size here
	const rounds = 5
	objects := testing.AllocsPerRun(rounds, cycle) / n
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / rounds / n
	t.Logf("insert + delete of one view row: %.2f objects, %.0f B", objects, bytes)
	if objects > 3 {
		t.Errorf("a view row inserted and deleted allocates %.2f objects, budget 3", objects)
	}
	if bytes > 450 {
		t.Errorf("a view row inserted and deleted allocates %.0f B, budget 450", bytes)
	}
	if mv.Len() != 0 {
		t.Fatalf("%d rows left in the view", mv.Len())
	}
}
