package ojv_test

import (
	"fmt"
	"testing"

	"ojv"
	"ojv/internal/algebra"
)

// registerShopViews registers n views over the shop tables. Shape
// "identical" gives every view the same three-table expression, and each
// view is its own family; "filtered" gives view i a distinct selection
// constant on lineitem, which the outer joins null-supply, so the views stay
// separate families; "family" gives view i a distinct selection constant
// on customer, which is in every term of the normal form, so the views are
// one family (DESIGN.md §19).
func registerShopViews(t testing.TB, db *ojv.Database, n int, shape string) []*ojv.View {
	t.Helper()
	out := make([]*ojv.View, n)
	for i := 0; i < n; i++ {
		customer, lineitem := ojv.Table("customer"), ojv.Table("lineitem")
		switch shape {
		case "filtered":
			lineitem = lineitem.Where(ojv.Cmp("lineitem", "qty", algebra.OpGt, ojv.Int(int64(i))))
		case "family":
			customer = customer.Where(ojv.Cmp("customer", "ck", algebra.OpGt, ojv.Int(int64(i))))
		}
		rel := customer.LeftJoin(
			ojv.Table("orders").FullJoin(lineitem,
				ojv.Eq("orders", "ok", "lineitem", "lok")),
			ojv.Eq("customer", "ck", "orders", "ock"))
		v, err := db.CreateView(fmt.Sprintf("mv%d", i), rel,
			ojv.Columns("customer.ck", "customer.name", "orders.ok", "orders.total",
				"lineitem.lok", "lineitem.ln", "lineitem.qty"))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// stmtWriter is the statement surface *ojv.Database (synchronous) and
// *ojv.WriteBatch (staged) share.
type stmtWriter interface {
	Insert(table string, rows []ojv.Row) error
	Delete(table string, keys [][]ojv.Value) ([]ojv.Row, error)
	Update(table string, key []ojv.Value, newRow ojv.Row) error
}

// manyViewsWorkload drives one mixed statement sequence through a writer,
// flushing at the end when the writer is a batch.
func manyViewsWorkload(t testing.TB, w stmtWriter) {
	t.Helper()
	if err := w.Insert("orders", []ojv.Row{
		{ojv.Int(20), ojv.Int(1), ojv.Float(10), ojv.MustDate("2007-05-01")},
		{ojv.Int(21), ojv.Int(2), ojv.Float(20), ojv.MustDate("2007-05-02")},
		{ojv.Int(22), ojv.Int(3), ojv.Float(30), ojv.MustDate("2007-05-03")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Insert("lineitem", []ojv.Row{
		{ojv.Int(20), ojv.Int(1), ojv.Int(5)},
		{ojv.Int(21), ojv.Int(1), ojv.Int(6)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Update("orders", []ojv.Value{ojv.Int(21)},
		ojv.Row{ojv.Int(21), ojv.Int(2), ojv.Float(99), ojv.MustDate("2007-05-04")}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Delete("lineitem", [][]ojv.Value{{ojv.Int(20), ojv.Int(1)}}); err != nil {
		t.Fatal(err)
	}
	if wb, ok := w.(*ojv.WriteBatch); ok {
		if err := wb.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestManyViewsFlushIdentity: K views over the same tables, flushed in one
// batch, each equal their recomputation from the base tables (View.Check),
// and the same statements run synchronously — the same write path, one step
// at a time — land on the same state. The "family" views differ only in a
// selection on customer, which is in every term, so they are one view
// family (DESIGN.md §19): one maintenance run serves all four. The
// "identical" and "filtered" views stay separate families, each
// maintaining its own rows.
func TestManyViewsFlushIdentity(t *testing.T) {
	for _, shape := range []string{"identical", "filtered", "family"} {
		t.Run(shape, func(t *testing.T) {
			const K = 4
			db := newShopDB(t)
			views := registerShopViews(t, db, K, shape)
			dbSync := newShopDB(t)
			viewsSync := registerShopViews(t, dbSync, K, shape)

			wb := db.NewWriteBatch(ojv.BatchOptions{})
			manyViewsWorkload(t, wb)
			manyViewsWorkload(t, dbSync)

			for i := range views {
				if err := views[i].Check(); err != nil {
					t.Fatalf("view %d after the flush: %v", i, err)
				}
				if err := viewsSync[i].Check(); err != nil {
					t.Fatalf("view %d after synchronous statements: %v", i, err)
				}
				if got, want := viewFingerprint(views[i]), viewFingerprint(viewsSync[i]); got != want {
					t.Errorf("view %d: flushed state differs from synchronous state", i)
				}
			}

			family := true
			for _, v := range views {
				family = family && v.Maintainer() == views[0].Maintainer()
			}
			if family != (shape == "family") {
				t.Fatalf("%s views: one family %v", shape, family)
			}
			if err := wb.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRegistryChangeBetweenFlushes covers register/drop between flushes of
// one batch: a new view reusing a dropped view's name — with a different
// definition — is maintained by its own plan, never the dropped view's,
// and a view registered between flushes is maintained from the next one.
func TestRegistryChangeBetweenFlushes(t *testing.T) {
	db := newShopDB(t)
	views := registerShopViews(t, db, 2, "identical")
	wb := db.NewWriteBatch(ojv.BatchOptions{})

	if err := wb.Insert("orders", []ojv.Row{
		{ojv.Int(30), ojv.Int(1), ojv.Float(11), ojv.MustDate("2007-06-01")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}

	// Drop mv1 and reuse its name for a structurally different view (a
	// two-table join), which must not inherit the old mv1's plan.
	if !db.DropView("mv1") {
		t.Fatal("DropView(mv1) found nothing")
	}
	if db.View("mv1") != nil {
		t.Fatal("mv1 still registered after drop")
	}
	vNew, err := db.CreateView("mv1",
		ojv.Table("customer").LeftJoin(ojv.Table("orders"),
			ojv.Eq("customer", "ck", "orders", "ock")),
		ojv.Columns("customer.ck", "customer.name", "orders.ok", "orders.total"))
	if err != nil {
		t.Fatal(err)
	}

	if err := wb.Insert("orders", []ojv.Row{
		{ojv.Int(31), ojv.Int(2), ojv.Float(12), ojv.MustDate("2007-06-02")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	// Both surviving views must be exactly right (Check recomputes from
	// the base tables) — a stale plan would corrupt one of them.
	if err := views[0].Check(); err != nil {
		t.Fatalf("mv0 after registry change: %v", err)
	}
	if err := vNew.Check(); err != nil {
		t.Fatalf("new mv1 after name reuse: %v", err)
	}

	// A view registered between flushes is maintained by the next one: add
	// a twin of mv0.
	vTwin, err := db.CreateView("mv2",
		ojv.Table("customer").LeftJoin(
			ojv.Table("orders").FullJoin(ojv.Table("lineitem"),
				ojv.Eq("orders", "ok", "lineitem", "lok")),
			ojv.Eq("customer", "ck", "orders", "ock")),
		ojv.Columns("customer.ck", "customer.name", "orders.ok", "orders.total",
			"lineitem.lok", "lineitem.ln", "lineitem.qty"))
	if err != nil {
		t.Fatal(err)
	}
	if err := wb.Insert("orders", []ojv.Row{
		{ojv.Int(32), ojv.Int(3), ojv.Float(13), ojv.MustDate("2007-06-03")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []*ojv.View{views[0], vNew, vTwin} {
		if err := v.Check(); err != nil {
			t.Fatal(err)
		}
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
}
