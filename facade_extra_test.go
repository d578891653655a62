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

// TestCreateIndexDuplicateName pins that an index name is unique per table:
// a second index under a used name is rejected (whatever its columns) and
// leaves the table as it was, while the name stays free on other tables.
func TestCreateIndexDuplicateName(t *testing.T) {
	db := newShopDB(t)
	if err := db.CreateIndex("orders", "ix", "total"); err != nil {
		t.Fatal(err)
	}
	err := db.CreateIndex("orders", "ix", "day")
	if err == nil || !strings.Contains(err.Error(), "index ix already exists") {
		t.Fatalf("second index named ix on orders: err = %v, want an already-exists error", err)
	}
	if err := db.CreateIndex("customer", "ix", "name"); err != nil {
		t.Fatalf("the same name on another table: %v", err)
	}
	if err := db.Insert("orders", []ojv.Row{{ojv.Int(12), ojv.Int(3), ojv.Float(7), ojv.MustDate("2007-04-17")}}); err != nil {
		t.Fatal(err)
	}
	if got := db.TableSnapshot("orders").Len(); got != 3 {
		t.Fatalf("orders snapshot has %d rows after the rejected index, want 3", got)
	}
}

// TestTwoIndexTablePublishes runs 50 statements — inserts, updates that move
// rows between the buckets of both indexes, deletes — against a table with
// two secondary indexes, and after each one compares the published
// snapshot, by Rows and by Get, with what the statements should have left.
func TestTwoIndexTablePublishes(t *testing.T) {
	db := ojv.NewDatabase()
	db.MustCreateTable("t", ojv.Cols(ojv.IntCol("id"), ojv.IntCol("a"), ojv.IntCol("b")), "id")
	if err := db.CreateIndex("t", "ix_a", "a"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("t", "ix_b", "b"); err != nil {
		t.Fatal(err)
	}
	want := make(map[int64][2]int64)
	lastEpoch := db.TableSnapshot("t").Epoch()
	for i := int64(0); i < 50; i++ {
		switch {
		case i%5 == 3: // move the previous row to other buckets of both indexes
			id := i - 1
			want[id] = [2]int64{id%3 + 10, 20}
			if err := db.Update("t", []ojv.Value{ojv.Int(id)}, ojv.Row{ojv.Int(id), ojv.Int(id%3 + 10), ojv.Int(20)}); err != nil {
				t.Fatal(err)
			}
		case i%5 == 4: // delete a row from a shared bucket
			id := i - 4
			delete(want, id)
			if _, err := db.Delete("t", [][]ojv.Value{{ojv.Int(id)}}); err != nil {
				t.Fatal(err)
			}
		default:
			want[i] = [2]int64{i % 3, i % 2}
			if err := db.Insert("t", []ojv.Row{{ojv.Int(i), ojv.Int(i % 3), ojv.Int(i % 2)}}); err != nil {
				t.Fatal(err)
			}
		}
		snap := db.TableSnapshot("t")
		if snap.Epoch() <= lastEpoch {
			t.Fatalf("statement %d: epoch %d after %d", i, snap.Epoch(), lastEpoch)
		}
		lastEpoch = snap.Epoch()
		rows := snap.Rows()
		if len(rows) != len(want) || snap.Len() != len(want) {
			t.Fatalf("statement %d: %d rows, Len %d, want %d", i, len(rows), snap.Len(), len(want))
		}
		for _, r := range rows {
			if w, ok := want[r[0].AsInt()]; !ok || w != [2]int64{r[1].AsInt(), r[2].AsInt()} {
				t.Fatalf("statement %d: snapshot row %v, want %v (%v)", i, r, w, ok)
			}
		}
		for id, w := range want {
			if r, ok := snap.Get(ojv.Int(id)); !ok || w != [2]int64{r[1].AsInt(), r[2].AsInt()} {
				t.Fatalf("statement %d: Get(%d) = %v,%v want %v", i, id, r, ok, w)
			}
		}
	}
}
