package view

import (
	"strings"
	"testing"

	"ojv/internal/fixture"
	"ojv/internal/rel"
)

// Error-path and edge-case coverage for the maintenance engine.

func TestOnDeleteOfUnknownRowsFails(t *testing.T) {
	cat, m := newV1Maintainer(t, false, Options{})
	// Deleting rows that were never in the base table (so never in the
	// view) must surface as an error, not silent corruption. Give the
	// phantom a join attribute that actually matches some R row so the
	// primary delta is non-empty.
	var c rel.Value
	for _, r := range cat.Table("R").Rows() {
		c = r[2]
		break
	}
	phantom := []rel.Row{{rel.Int(424242), c, rel.Int(1)}} // T(tk, c, d): c joins R.c
	if _, err := m.OnDelete("T", phantom); err == nil {
		t.Error("phantom deletion must fail")
	}
}

func TestPlanCaching(t *testing.T) {
	_, m := newV1Maintainer(t, false, Options{})
	p1, err := m.Plan("T", true)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.Plan("T", true)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("plans must be cached per (table, fkOK)")
	}
	p3, err := m.Plan("T", false)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p3 {
		t.Error("fkOK=false must build a distinct plan")
	}
	if _, err := m.Plan("nosuch", true); err == nil {
		t.Error("unknown table must fail")
	}
}

func TestDeleteStatsMirrorInsertStats(t *testing.T) {
	cat, m := newV1Maintainer(t, false, Options{})
	rows := insertRowsFor(cat, "T", 6, 321, false)
	ins := runInsert(t, cat, m, "T", rows)
	keys := make([][]rel.Value, len(rows))
	for i, r := range rows {
		keys[i] = []rel.Value{r[0]}
	}
	deleted, err := cat.Delete("T", keys)
	if err != nil {
		t.Fatal(err)
	}
	del, err := m.OnDelete("T", deleted)
	if err != nil {
		t.Fatal(err)
	}
	if del.Table != "T" {
		t.Errorf("delete stats header: %+v", del)
	}
	if del.PrimaryRows != ins.PrimaryRows {
		t.Errorf("insert added %d primary rows, delete removed %d", ins.PrimaryRows, del.PrimaryRows)
	}
	// Orphans removed by the insert come back on the delete.
	if del.SecondaryRows != ins.SecondaryRows {
		t.Errorf("insert cleaned %d orphans, delete recreated %d", ins.SecondaryRows, del.SecondaryRows)
	}
	if err := Check(m); err != nil {
		t.Fatal(err)
	}
}

func TestModifyWithFromBaseStrategy(t *testing.T) {
	// OnModify under the from-base secondary strategy: the collapsed base
	// state (both phases see the final table) must still produce an exact
	// view.
	cat, m := newV1Maintainer(t, true, Options{Strategy: StrategyFromBase})
	old, ok := cat.Table("T").Get(rel.Int(5))
	if !ok {
		t.Fatal("row T(5) missing")
	}
	newRow := rel.Row{rel.Int(5), rel.Int(2), rel.Int(3)}
	if _, err := cat.Update("T", []rel.Value{rel.Int(5)}, newRow); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OnModify("T", []rel.Row{old}, []rel.Row{newRow}); err != nil {
		t.Fatal(err)
	}
	if err := Check(m); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateUpdatesAcrossViews(t *testing.T) {
	// Two maintainers over the same catalog stay consistent independently.
	cat := mustRSTU(t, false)
	def1, err := Define(cat, "va", fixture.V1Expr(false), fixture.V1Output(cat))
	if err != nil {
		t.Fatal(err)
	}
	rs := fixture.V1Expr(false)
	def2, err := Define(cat, "vb", rs, fixture.V1Output(cat))
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := NewMaintainer(def1, Options{})
	m2, _ := NewMaintainer(def2, Options{Strategy: StrategyFromBase})
	if err := m1.Materialize(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Materialize(); err != nil {
		t.Fatal(err)
	}
	rows := insertRowsFor(cat, "U", 5, 77, false)
	if err := cat.Insert("U", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.OnInsert("U", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.OnInsert("U", rows); err != nil {
		t.Fatal(err)
	}
	if err := Check(m1); err != nil {
		t.Fatal(err)
	}
	if err := Check(m2); err != nil {
		t.Fatal(err)
	}
	a, b := m1.Materialized().SortedRows(), m2.Materialized().SortedRows()
	if len(a) != len(b) {
		t.Fatalf("views diverge: %d vs %d rows", len(a), len(b))
	}
}

func TestCheckerReportsDivergence(t *testing.T) {
	_, m := newV1Maintainer(t, false, Options{})
	// Corrupt the view and ensure the checker notices, with a readable
	// message.
	mv := m.Materialized()
	for k := range storeHandles(&mv.rows) {
		deleteNow(mv, k)
		break
	}
	err := Check(m)
	if err == nil {
		t.Fatal("checker must detect a missing row")
	}
	if !strings.Contains(err.Error(), "rows") {
		t.Errorf("unhelpful checker error: %v", err)
	}
}

func TestApproxEqual(t *testing.T) {
	if !approxEqual(rel.Float(1e6), rel.Float(1e6+1e-5)) {
		t.Error("tiny relative error must pass")
	}
	if approxEqual(rel.Float(1), rel.Float(1.1)) {
		t.Error("large error must fail")
	}
	if !approxEqual(rel.Null, rel.Null) {
		t.Error("NULL equals NULL")
	}
	if approxEqual(rel.Null, rel.Float(0)) {
		t.Error("NULL differs from 0")
	}
	if approxEqual(rel.Str("a"), rel.Str("b")) {
		t.Error("strings compare exactly")
	}
	if !approxEqual(rel.Int(2), rel.Float(2)) {
		t.Error("numeric coercion")
	}
}
