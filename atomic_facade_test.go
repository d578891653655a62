package ojv_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ojv"
	"ojv/internal/rel"
)

// snapshotRows renders a row set order-independently.
func snapshotRows(rows []ojv.Row) string {
	enc := make([]string, len(rows))
	for i, r := range rows {
		enc[i] = rel.EncodeValues(r...)
	}
	sort.Strings(enc)
	return strings.Join(enc, "\n")
}

// TestDatabaseUpdateAtomicity drives the multi-view update path into an
// injected maintenance failure on the second view and checks the atomicity
// guarantee end to end: the base table, every view (including the first,
// already-staged one) and the published stats are untouched; disarming the
// fault and retrying succeeds.
func TestDatabaseUpdateAtomicity(t *testing.T) {
	armed := true
	opts := ojv.Options{FailPoint: func(site string) error {
		if !armed {
			return nil
		}
		return fmt.Errorf("injected fault at %s", site)
	}}

	db := newShopDB(t)
	v1 := shopView(t, db) // registered first: staged, then rolled back
	v2, err := db.CreateView("ol",
		ojv.Table("orders").FullJoin(ojv.Table("lineitem"),
			ojv.Eq("orders", "ok", "lineitem", "lok")),
		ojv.Columns("orders.ok", "orders.total", "lineitem.lok", "lineitem.ln", "lineitem.qty"),
		opts)
	if err != nil {
		t.Fatal(err)
	}

	type op struct {
		name  string
		table string
		run   func() error
	}
	ops := []op{
		{"insert", "orders", func() error {
			return db.Insert("orders", []ojv.Row{{ojv.Int(13), ojv.Int(1), ojv.Float(20), ojv.MustDate("2007-04-18")}})
		}},
		{"delete", "lineitem", func() error {
			_, err := db.Delete("lineitem", [][]ojv.Value{{ojv.Int(10), ojv.Int(1)}})
			return err
		}},
		{"update", "orders", func() error {
			return db.Update("orders", []ojv.Value{ojv.Int(11)}, ojv.Row{ojv.Int(11), ojv.Int(2), ojv.Float(60), ojv.MustDate("2007-04-16")})
		}},
	}
	for _, o := range ops {
		t.Run(o.name, func(t *testing.T) {
			armed = true
			baseRows := func() []ojv.Row { return db.TableSnapshot(o.table).Rows() }
			preBase := snapshotRows(baseRows())
			preV1, preV2 := snapshotRows(v1.Rows()), snapshotRows(v2.Rows())
			preStats1, preStats2 := v1.LastStats, v2.LastStats

			err := o.run()
			if err == nil || !strings.Contains(err.Error(), "injected fault") {
				t.Fatalf("faulted %s: got %v, want injected fault", o.name, err)
			}
			if got := snapshotRows(baseRows()); got != preBase {
				t.Errorf("base table %s changed across failed %s", o.table, o.name)
			}
			if got := snapshotRows(v1.Rows()); got != preV1 {
				t.Errorf("first view changed across failed %s", o.name)
			}
			if got := snapshotRows(v2.Rows()); got != preV2 {
				t.Errorf("failing view changed across failed %s", o.name)
			}
			if v1.LastStats != preStats1 || v2.LastStats != preStats2 {
				t.Errorf("LastStats published for a rolled-back %s", o.name)
			}

			armed = false
			if err := o.run(); err != nil {
				t.Fatalf("retry of %s: %v", o.name, err)
			}
			if err := v1.Check(); err != nil {
				t.Errorf("first view after retried %s: %v", o.name, err)
			}
			if err := v2.Check(); err != nil {
				t.Errorf("second view after retried %s: %v", o.name, err)
			}
			if v2.LastStats == nil || !v2.LastStats.Committed {
				t.Errorf("committed %s did not publish committed stats: %+v", o.name, v2.LastStats)
			}
			if snapshotRows(baseRows()) == preBase {
				t.Errorf("retried %s left the base table unchanged", o.name)
			}
		})
	}
}
