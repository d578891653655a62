package ojv_test

import (
	"strings"
	"testing"

	"ojv"
)

// newShopDB builds a small three-table database with foreign keys through
// the public API.
func newShopDB(t testing.TB) *ojv.Database {
	t.Helper()
	db := ojv.NewDatabase()
	db.MustCreateTable("customer", ojv.Cols(ojv.IntCol("ck"), ojv.StrCol("name")), "ck")
	db.MustCreateTable("orders", ojv.Cols(
		ojv.IntCol("ok"), ojv.NotNull(ojv.IntCol("ock")), ojv.FloatCol("total"), ojv.DateCol("day")), "ok")
	db.MustCreateTable("lineitem", ojv.Cols(
		ojv.NotNull(ojv.IntCol("lok")), ojv.IntCol("ln"), ojv.IntCol("qty")), "lok", "ln")
	if err := db.AddForeignKey("orders", []string{"ock"}, "customer", []string{"ck"}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddForeignKey("lineitem", []string{"lok"}, "orders", []string{"ok"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("customer", []ojv.Row{
		{ojv.Int(1), ojv.Str("ada")},
		{ojv.Int(2), ojv.Str("bob")},
		{ojv.Int(3), ojv.Str("cyd")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("orders", []ojv.Row{
		{ojv.Int(10), ojv.Int(1), ojv.Float(100), ojv.MustDate("2007-04-15")},
		{ojv.Int(11), ojv.Int(2), ojv.Float(50), ojv.MustDate("2007-04-16")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("lineitem", []ojv.Row{
		{ojv.Int(10), ojv.Int(1), ojv.Int(3)},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func shopView(t testing.TB, db *ojv.Database, opts ...ojv.Options) *ojv.View {
	t.Helper()
	v, err := db.CreateView("shop",
		ojv.Table("customer").LeftJoin(
			ojv.Table("orders").FullJoin(ojv.Table("lineitem"),
				ojv.Eq("orders", "ok", "lineitem", "lok")),
			ojv.Eq("customer", "ck", "orders", "ock")),
		ojv.Columns("customer.ck", "customer.name", "orders.ok", "orders.total",
			"lineitem.lok", "lineitem.ln", "lineitem.qty"), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestDatabaseLifecycle(t *testing.T) {
	db := newShopDB(t)
	v := shopView(t, db)
	if v.Len() == 0 {
		t.Fatal("view is empty after materialization")
	}
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
	// Mixed workload through the public API.
	if err := db.Insert("orders", []ojv.Row{{ojv.Int(12), ojv.Int(3), ojv.Float(75), ojv.MustDate("2007-04-17")}}); err != nil {
		t.Fatal(err)
	}
	if v.LastStats == nil || v.LastStats.Table != "orders" {
		t.Errorf("LastStats = %+v", v.LastStats)
	}
	if err := db.Insert("lineitem", []ojv.Row{
		{ojv.Int(11), ojv.Int(1), ojv.Int(2)},
		{ojv.Int(12), ojv.Int(1), ojv.Int(9)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete("lineitem", [][]ojv.Value{{ojv.Int(10), ojv.Int(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update("orders", []ojv.Value{ojv.Int(11)}, ojv.Row{ojv.Int(11), ojv.Int(2), ojv.Float(55), ojv.MustDate("2007-04-16")}); err != nil {
		t.Fatal(err)
	}
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
	// Update must not change the key.
	if err := db.Update("orders", []ojv.Value{ojv.Int(11)}, ojv.Row{ojv.Int(99), ojv.Int(2), ojv.Float(55), ojv.MustDate("2007-04-16")}); err == nil {
		t.Error("key-changing update must be rejected")
	}
}

func TestDatabaseErrors(t *testing.T) {
	db := newShopDB(t)
	if err := db.CreateTable("customer", ojv.Cols(ojv.IntCol("x")), "x"); err == nil {
		t.Error("duplicate table")
	}
	if err := db.CreateIndex("nosuch", "ix", "x"); err == nil {
		t.Error("index on unknown table")
	}
	if err := db.Insert("orders", []ojv.Row{{ojv.Int(99), ojv.Int(42), ojv.Float(1), ojv.MustDate("2007-01-01")}}); err == nil {
		t.Error("FK violation must be rejected")
	}
	shopView(t, db)
	if _, err := db.CreateView("shop", ojv.Table("customer"), ojv.Columns("customer.ck")); err == nil {
		t.Error("duplicate view name")
	}
	if db.View("shop") == nil || db.View("nosuch") != nil {
		t.Error("View lookup")
	}
	// A view over a missing column.
	if _, err := db.CreateView("bad", ojv.Table("customer"), ojv.Columns("customer.nosuch")); err == nil {
		t.Error("bad output column")
	}
}

func TestViewOptionsThroughFacade(t *testing.T) {
	for _, opts := range []ojv.Options{
		{},
		{Strategy: 2 /* StrategyFromBase */},
		{DisableLeftDeep: true, DisableFKGraph: true},
	} {
		db := newShopDB(t)
		v := shopView(t, db, opts)
		if err := db.Insert("lineitem", []ojv.Row{{ojv.Int(11), ojv.Int(1), ojv.Int(4)}}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Delete("lineitem", [][]ojv.Value{{ojv.Int(11), ojv.Int(1)}}); err != nil {
			t.Fatal(err)
		}
		if err := v.Check(); err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
	}
}

func TestAggregateViewThroughFacade(t *testing.T) {
	db := newShopDB(t)
	v, err := db.CreateAggregateView("per_customer",
		ojv.Table("customer").LeftJoin(ojv.Table("orders"),
			ojv.Eq("customer", "ck", "orders", "ock")),
		ojv.AggSpec{
			GroupCols: []ojv.ColRef{ojv.Col("customer", "ck")},
			Aggs: []ojv.Aggregate{
				ojv.Count("n"),
				ojv.CountCol(ojv.Col("orders", "ok"), "orders"),
				ojv.Sum(ojv.Col("orders", "total"), "spend"),
				ojv.Avg(ojv.Col("orders", "total"), "avg_spend"),
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 3 {
		t.Fatalf("groups = %d, want 3 (one per customer)", v.Len())
	}
	if err := db.Insert("orders", []ojv.Row{{ojv.Int(13), ojv.Int(3), ojv.Float(20), ojv.MustDate("2007-05-01")}}); err != nil {
		t.Fatal(err)
	}
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
	// The orphan customer 3 now has an order: its group must show it.
	found := false
	for _, row := range v.Rows() {
		if row[0].Equal(ojv.Int(3)) {
			found = true
			if !row[2].Equal(ojv.Int(1)) || !row[3].Equal(ojv.Float(20)) {
				t.Errorf("customer 3 group = %v", row)
			}
		}
	}
	if !found {
		t.Error("customer 3 group missing")
	}
	if v.TermCardinality("customer") != 0 {
		t.Error("TermCardinality on aggregate views reports 0")
	}
}

func TestValueHelpers(t *testing.T) {
	if ojv.Int(1).IsNull() || !ojv.Null.IsNull() {
		t.Error("Null/Int")
	}
	if ojv.Str("x").String() != "x" || ojv.Bool(true).String() != "true" {
		t.Error("Str/Bool")
	}
	if !strings.Contains(ojv.MustDate("2007-04-15").String(), "2007-04-15") {
		t.Error("MustDate")
	}
	c := ojv.NotNull(ojv.FloatCol("f"))
	if !c.NotNull || c.Name != "f" {
		t.Error("NotNull/FloatCol")
	}
	cols := ojv.Columns("a.b", "c.d")
	if cols[0].Table != "a" || cols[1].Column != "d" {
		t.Error("Columns parsing")
	}
	defer func() {
		if recover() == nil {
			t.Error("malformed column must panic")
		}
	}()
	ojv.Columns("nodot")
}

func TestPredicateHelpers(t *testing.T) {
	p := ojv.And(
		ojv.Eq("a", "x", "b", "y"),
		ojv.Cmp("a", "z", ojv.OpGe, ojv.Int(5)),
	)
	if !strings.Contains(p.String(), "a.x=b.y") || !strings.Contains(p.String(), "a.z>=5") {
		t.Errorf("pred string = %s", p)
	}
}

// TestValueUpdateOfParent updates a parent row's value, key unchanged, under
// P ⟗ C: the update's signed delta removes and re-adds every join row of the
// parent, and each §5.3 candidate (a child of the parent) is evidenced after
// the update by the new image and before it by the old one. So an
// aggregation view grouped by the updated column folds no candidate either
// way, and a from-base SPOJ view finds no orphan to add or remove; both still
// equal recomputation.
func TestValueUpdateOfParent(t *testing.T) {
	db := ojv.NewDatabase()
	db.MustCreateTable("P", ojv.Cols(ojv.IntCol("pk"), ojv.IntCol("pv")), "pk")
	db.MustCreateTable("C", ojv.Cols(ojv.IntCol("ck"), ojv.IntCol("cpk"), ojv.IntCol("cv")), "ck")
	if err := db.Insert("P", []ojv.Row{{ojv.Int(1), ojv.Int(10)}, {ojv.Int(2), ojv.Int(20)}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("C", []ojv.Row{
		{ojv.Int(1), ojv.Int(1), ojv.Int(5)},
		{ojv.Int(2), ojv.Int(1), ojv.Int(6)},
		{ojv.Int(3), ojv.Int(2), ojv.Int(7)},
		{ojv.Int(4), ojv.Int(9), ojv.Int(8)}, // an orphan child
	}); err != nil {
		t.Fatal(err)
	}
	join := ojv.Table("P").FullJoin(ojv.Table("C"), ojv.Eq("P", "pk", "C", "cpk"))
	agg, err := db.CreateAggregateView("by_pv", join, ojv.AggSpec{
		GroupCols: []ojv.ColRef{ojv.Col("P", "pv")},
		Aggs:      []ojv.Aggregate{ojv.Count("n"), ojv.Sum(ojv.Col("C", "cv"), "s")},
	})
	if err != nil {
		t.Fatal(err)
	}
	spoj, err := db.CreateView("pc", join, ojv.Columns("P.pk", "P.pv", "C.ck", "C.cv"),
		ojv.Options{Strategy: ojv.StrategyFromBase})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update("P", []ojv.Value{ojv.Int(1)}, ojv.Row{ojv.Int(1), ojv.Int(11)}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []*ojv.View{agg, spoj} {
		if err := v.Check(); err != nil {
			t.Fatalf("%s: %v", v.Name(), err)
		}
		if got := v.LastStats.SecondaryRows; got != 0 {
			t.Errorf("%s: SecondaryRows = %d, want 0: every candidate is evidenced on both sides of the update", v.Name(), got)
		}
	}
	// The aggregate's whole change is its primary folds: group 10 loses its
	// two rows and goes, group 11 arrives.
	if got := agg.LastStats.UndoRecords; got != 2 {
		t.Errorf("by_pv: UndoRecords = %d, want 2", got)
	}
}
