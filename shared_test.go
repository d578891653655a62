package ojv_test

import (
	"fmt"
	"testing"

	"ojv"
	"ojv/internal/algebra"
)

// registerShopViews registers n views over the shop tables. Shape
// "identical" gives every view the same three-table expression, so their
// maintenance trees share fully; "filtered" gives view i a distinct
// selection constant on lineitem, which the outer joins null-supply, so the
// trees differ structurally below the root and the views stay separate
// families; "family" gives view i a distinct selection constant on customer,
// which is in every term of the normal form, so the views are one family
// (DESIGN.md §19).
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

// sharedWorkload drives one mixed statement sequence through a writer,
// flushing at the end when the writer is a batch.
func sharedWorkload(t testing.TB, w stmtWriter) {
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

// TestSharedFlushIdentity is the shared-plan acceptance: K views sharing
// their maintenance trees are flushed through one shared evaluation per
// subtree, every view equals its recomputation from the base tables
// (View.Check), and the producer/consumer row accounting balances
// (Σ consumer = producer + saved, with saved > 0 for K > 1). The same
// statements run synchronously — the same write path, one step at a time,
// sharing included — must land on the same state. The "family" views
// differ only in a selection on customer, which is in every term, so they
// are one view family (DESIGN.md §19): one maintenance run serves all four,
// and there is nothing left for the shared DAG to share.
func TestSharedFlushIdentity(t *testing.T) {
	for _, shape := range []string{"identical", "filtered", "family"} {
		t.Run(shape, func(t *testing.T) {
			const K = 4
			db := newShopDB(t)
			views := registerShopViews(t, db, K, shape)
			dbSync := newShopDB(t)
			viewsSync := registerShopViews(t, dbSync, K, shape)

			metrics := ojv.NewMetrics()
			wb := db.NewWriteBatch(ojv.BatchOptions{Metrics: metrics})
			sharedWorkload(t, wb)
			sharedWorkload(t, dbSync)

			for i := range views {
				if err := views[i].Check(); err != nil {
					t.Fatalf("view %d after the shared flush: %v", i, err)
				}
				if err := viewsSync[i].Check(); err != nil {
					t.Fatalf("view %d after synchronous statements: %v", i, err)
				}
				if got, want := viewFingerprint(views[i]), viewFingerprint(viewsSync[i]); got != want {
					t.Errorf("view %d: flushed state differs from synchronous state", i)
				}
			}

			snap := metrics.Snapshot()
			produced := snap["view.shared.rows.producer"]
			consumed := snap["view.shared.rows.consumer"]
			saved := snap["view.shared.rows.saved"]
			family := true
			for _, v := range views {
				family = family && v.Maintainer() == views[0].Maintainer()
			}
			if consumed != produced+saved {
				t.Fatalf("row identity broken: Σ consumer %d != producer %d + saved %d",
					consumed, produced, saved)
			}
			switch {
			case shape == "family":
				if !family {
					t.Fatal("views differing only in a selection on customer did not form one family")
				}
			case family:
				t.Fatalf("%s views formed one family", shape)
			case snap["view.shared.subtrees"] == 0:
				t.Fatal("no shared subtrees detected across views with a common prefix")
			case saved == 0:
				t.Fatalf("no rows saved across %d views (produced=%d)", K, produced)
			}
			if err := wb.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSharedFlushSingleView: with one registered view the sharing layer
// stays out of the way entirely — no shared subtrees, no producer spans —
// so the single-view flush path (and its golden trace) is unchanged.
func TestSharedFlushSingleView(t *testing.T) {
	db := newShopDB(t)
	v := shopView(t, db)
	metrics := ojv.NewMetrics()
	wb := db.NewWriteBatch(ojv.BatchOptions{Metrics: metrics})
	sharedWorkload(t, wb)
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
	if n := metrics.Snapshot()["view.shared.subtrees"]; n != 0 {
		t.Fatalf("single-view flush built %d shared subtrees", n)
	}
}

// TestSharedPlanRebuildOnRegistryChange covers plan-cache invalidation
// around register/drop between flushes: the shared DAG is rebuilt from the
// live registry each flush, so a dropped view's subtrees vanish, and a new
// view reusing the dropped view's name — with a different definition —
// must get its own structural keys, never the stale tree.
func TestSharedPlanRebuildOnRegistryChange(t *testing.T) {
	db := newShopDB(t)
	views := registerShopViews(t, db, 2, "identical")
	metrics := ojv.NewMetrics()
	wb := db.NewWriteBatch(ojv.BatchOptions{Metrics: metrics})

	if err := wb.Insert("orders", []ojv.Row{
		{ojv.Int(30), ojv.Int(1), ojv.Float(11), ojv.MustDate("2007-06-01")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	afterFirst := metrics.Snapshot()["view.shared.subtrees"]
	if afterFirst == 0 {
		t.Fatal("first flush: identical views shared nothing")
	}

	// Drop mv1 and reuse its name for a structurally different view (a
	// two-table join). A stale key for the old mv1 tree must not bind the
	// new view's plan to the old producer shape.
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
	// the base tables) — an aliased subtree would corrupt one of them.
	if err := views[0].Check(); err != nil {
		t.Fatalf("mv0 after registry change: %v", err)
	}
	if err := vNew.Check(); err != nil {
		t.Fatalf("new mv1 after name reuse: %v", err)
	}

	// A view registered between flushes joins the next DAG: add a twin of
	// mv0 and require fresh sharing on the following flush.
	before := metrics.Snapshot()["view.shared.subtrees"]
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
	if after := metrics.Snapshot()["view.shared.subtrees"]; after <= before {
		t.Fatalf("newly registered twin did not join the shared DAG (subtrees %d → %d)", before, after)
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
