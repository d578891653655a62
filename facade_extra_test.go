package ojv_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"ojv"
)

func TestSnapshotThroughFacade(t *testing.T) {
	db := newShopDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := ojv.OpenSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Views are re-created over the restored tables and must match views
	// over the original.
	v1 := shopView(t, db)
	v2 := shopView(t, db2)
	if v1.Len() != v2.Len() {
		t.Fatalf("restored view has %d rows, original %d", v2.Len(), v1.Len())
	}
	if err := v2.Check(); err != nil {
		t.Fatal(err)
	}
	// The restored database keeps maintaining.
	if err := db2.Insert("lineitem", []ojv.Row{{ojv.Int(11), ojv.Int(1), ojv.Int(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := v2.Check(); err != nil {
		t.Fatal(err)
	}
	if _, err := ojv.OpenSnapshot(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk snapshot must be rejected")
	}
}

func TestViewSelect(t *testing.T) {
	db := newShopDB(t)
	v := shopView(t, db)
	// Orphan customers: rows null-extended on orders.
	rows, err := v.Select(ojv.Cmp("customer", "ck", ojv.OpGe, ojv.Int(0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != v.Len() {
		t.Errorf("ck>=0 should keep all %d rows, got %d", v.Len(), len(rows))
	}
	rows, err = v.Select(ojv.Cmp("orders", "total", ojv.OpGt, ojv.Float(60)))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r[3].IsNull() || r[3].AsFloat() <= 60 {
			t.Errorf("row fails predicate: %v", r)
		}
	}
	if _, err := v.Select(ojv.Cmp("nosuch", "x", ojv.OpEq, ojv.Int(1))); err == nil {
		t.Error("bad predicate column must fail")
	}
}

func TestExplainMaintenanceThroughFacade(t *testing.T) {
	db := newShopDB(t)
	v := shopView(t, db)
	script, err := v.ExplainMaintenance("lineitem", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(script, "primary delta") || !strings.Contains(script, "#delta") {
		t.Errorf("script = %s", script)
	}
	if _, err := v.ExplainMaintenance("nosuch", true); err == nil {
		t.Error("unknown table must fail")
	}
}

// TestConcurrentReadersAndWriter drives parallel view reads against a
// stream of updates; run with -race to validate the locking discipline.
func TestConcurrentReadersAndWriter(t *testing.T) {
	db := newShopDB(t)
	v := shopView(t, db)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = v.Len()
				_ = v.Rows()
				_, _ = v.Select(ojv.Cmp("customer", "ck", ojv.OpGe, ojv.Int(0)))
				_ = v.TermCardinality("customer")
			}
		}()
	}
	for i := 0; i < 50; i++ {
		rows := []ojv.Row{{ojv.Int(10), ojv.Int(int64(1000 + i)), ojv.Int(int64(i))}}
		if err := db.Insert("lineitem", rows); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Delete("lineitem", [][]ojv.Value{{ojv.Int(10), ojv.Int(int64(1000 + i))}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadCatalogUnderOpenBatch is the regression test for LoadCatalog
// swapping the tables under an open WriteBatch: whatever the batch stages
// or already holds must be judged by the loaded tables' constraints — a
// child row whose parent the snapshot does not contain is rejected at
// enqueue or at flush, never committed. A concurrent TableSnapshot reader
// runs throughout (go test -race: LoadCatalog must not race it).
func TestLoadCatalogUnderOpenBatch(t *testing.T) {
	for _, stagedBeforeLoad := range []bool{false, true} {
		name := "staged after the load"
		if stagedBeforeLoad {
			name = "staged before the load"
		}
		t.Run(name, func(t *testing.T) {
			db := ojv.NewDatabase()
			db.MustCreateTable("p", ojv.Cols(ojv.IntCol("pk"), ojv.StrCol("name")), "pk")
			db.MustCreateTable("c", ojv.Cols(ojv.IntCol("ck"), ojv.NotNull(ojv.IntCol("cpk"))), "ck")
			if err := db.AddForeignKey("c", []string{"cpk"}, "p", []string{"pk"}); err != nil {
				t.Fatal(err)
			}
			var emptyP bytes.Buffer // a snapshot in which p has no rows
			if err := db.Save(&emptyP); err != nil {
				t.Fatal(err)
			}
			if err := db.Insert("p", []ojv.Row{{ojv.Int(1), ojv.Str("parent")}}); err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if s := db.TableSnapshot("p"); s != nil {
							_ = s.Len()
						}
					}
				}
			}()
			defer func() {
				close(stop)
				wg.Wait()
			}()

			wb := db.NewWriteBatch()
			child := []ojv.Row{{ojv.Int(10), ojv.Int(1)}}
			var insertErr error
			if stagedBeforeLoad {
				if err := wb.Insert("c", child); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.LoadCatalog(&emptyP); err != nil {
				t.Fatal(err)
			}
			if !stagedBeforeLoad {
				insertErr = wb.Insert("c", child)
			}
			flushErr := wb.Flush()
			if insertErr == nil && flushErr == nil {
				t.Error("a child row whose parent the loaded catalog lacks was staged and flushed without error")
			}
			if n := db.TableSnapshot("c").Len(); n != 0 {
				t.Fatalf("c holds %d row(s) referencing a parent that does not exist", n)
			}
			if stagedBeforeLoad {
				if wb.Err() == nil {
					t.Error("failed flush did not stick in Err")
				}
				// The stale table takes no more statements until the batch
				// lets go of what it staged against it.
				if err := wb.Insert("c", []ojv.Row{{ojv.Int(11), ojv.Int(1)}}); err == nil {
					t.Error("statement staged against a table the load replaced")
				}
				wb.Discard()
			}

			// The batch keeps working, against the loaded tables.
			if err := wb.Insert("p", []ojv.Row{{ojv.Int(2), ojv.Str("loaded")}}); err != nil {
				t.Fatal(err)
			}
			if err := wb.Insert("c", []ojv.Row{{ojv.Int(12), ojv.Int(2)}}); err != nil {
				t.Fatal(err)
			}
			if err := wb.Close(); err != nil {
				t.Fatal(err)
			}
			if p, c := db.TableSnapshot("p").Len(), db.TableSnapshot("c").Len(); p != 1 || c != 1 {
				t.Fatalf("after the load: p has %d rows, c has %d, want 1 and 1", p, c)
			}
		})
	}
}
