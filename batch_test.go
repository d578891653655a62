package ojv_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ojv"
)

// viewFingerprint renders a view's rows sorted, for state comparison.
func viewFingerprint(v *ojv.View) string {
	rows := v.Rows()
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestBatchEquivalence drives the same statement sequence through a
// WriteBatch and through the synchronous facade and requires bit-identical
// final view state.
func TestBatchEquivalence(t *testing.T) {
	dbSync := newShopDB(t)
	vSync := shopView(t, dbSync)
	dbBat := newShopDB(t)
	vBat := shopView(t, dbBat)
	wb := dbBat.NewWriteBatch()

	type stmt struct {
		run func(ins func(string, []ojv.Row) error,
			del func(string, [][]ojv.Value) ([]ojv.Row, error),
			upd func(string, []ojv.Value, ojv.Row) error) error
	}
	stmts := []stmt{
		{func(ins func(string, []ojv.Row) error, _ func(string, [][]ojv.Value) ([]ojv.Row, error), _ func(string, []ojv.Value, ojv.Row) error) error {
			return ins("orders", []ojv.Row{{ojv.Int(12), ojv.Int(3), ojv.Float(75), ojv.MustDate("2007-04-17")}})
		}},
		{func(ins func(string, []ojv.Row) error, _ func(string, [][]ojv.Value) ([]ojv.Row, error), _ func(string, []ojv.Value, ojv.Row) error) error {
			return ins("lineitem", []ojv.Row{{ojv.Int(12), ojv.Int(1), ojv.Int(4)}, {ojv.Int(12), ojv.Int(2), ojv.Int(5)}})
		}},
		{func(_ func(string, []ojv.Row) error, _ func(string, [][]ojv.Value) ([]ojv.Row, error), upd func(string, []ojv.Value, ojv.Row) error) error {
			return upd("orders", []ojv.Value{ojv.Int(12)}, ojv.Row{ojv.Int(12), ojv.Int(3), ojv.Float(99), ojv.MustDate("2007-04-18")})
		}},
		{func(_ func(string, []ojv.Row) error, del func(string, [][]ojv.Value) ([]ojv.Row, error), _ func(string, []ojv.Value, ojv.Row) error) error {
			_, err := del("lineitem", [][]ojv.Value{{ojv.Int(12), ojv.Int(2)}})
			return err
		}},
		{func(_ func(string, []ojv.Row) error, _ func(string, [][]ojv.Value) ([]ojv.Row, error), upd func(string, []ojv.Value, ojv.Row) error) error {
			return upd("orders", []ojv.Value{ojv.Int(11)}, ojv.Row{ojv.Int(11), ojv.Int(2), ojv.Float(51), ojv.MustDate("2007-04-16")})
		}},
	}
	for i, s := range stmts {
		if err := s.run(dbSync.Insert, dbSync.Delete, dbSync.Update); err != nil {
			t.Fatalf("sync stmt %d: %v", i, err)
		}
		if err := s.run(wb.Insert, wb.Delete, wb.Update); err != nil {
			t.Fatalf("batch stmt %d: %v", i, err)
		}
	}
	// Pending statements are invisible to view readers.
	if got, want := vBat.Len(), len(shopViewRowsBefore(t)); wb.PendingStatements() != len(stmts) || got != want {
		t.Fatalf("pending=%d viewLen=%d want %d (pre-flush reads must see committed state)",
			wb.PendingStatements(), got, want)
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := viewFingerprint(vBat), viewFingerprint(vSync); got != want {
		t.Errorf("batched state differs from synchronous state\n--- batch ---\n%s\n--- sync ---\n%s", got, want)
	}
	if err := vBat.Check(); err != nil {
		t.Fatal(err)
	}
}

// shopViewRowsBefore returns the shop view's row count on a fresh fixture,
// i.e. the committed state before any batch statement.
func shopViewRowsBefore(t *testing.T) []ojv.Row {
	db := newShopDB(t)
	return shopView(t, db).Rows()
}

// TestBatchDeleteReturnsRows is the Delete-asymmetry regression test: the
// batch path returns deleted rows at enqueue, without a maintenance run,
// including rows only staged (never committed) by the same batch.
func TestBatchDeleteReturnsRows(t *testing.T) {
	db := newShopDB(t)
	v := shopView(t, db)
	wb := db.NewWriteBatch()

	// Committed row: resolved from the base table.
	rows, err := wb.Delete("lineitem", [][]ojv.Value{{ojv.Int(10), ojv.Int(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !rows[0].Equal(ojv.Row{ojv.Int(10), ojv.Int(1), ojv.Int(3)}) {
		t.Fatalf("deleted committed row = %v", rows)
	}
	// No flush happened: the view still contains the row's join results.
	if wb.PendingStatements() != 1 {
		t.Fatalf("delete forced a flush (pending=%d)", wb.PendingStatements())
	}
	// Pending-inserted row: resolved from the overlay.
	if err := wb.Insert("lineitem", []ojv.Row{{ojv.Int(11), ojv.Int(9), ojv.Int(7)}}); err != nil {
		t.Fatal(err)
	}
	rows, err = wb.Delete("lineitem", [][]ojv.Value{{ojv.Int(11), ojv.Int(9)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !rows[0].Equal(ojv.Row{ojv.Int(11), ojv.Int(9), ojv.Int(7)}) {
		t.Fatalf("deleted staged row = %v", rows)
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchReadYourWrites pins the read semantics: Get merges the overlay,
// a view read sees only flushed state, and after Flush it sees every staged
// statement.
func TestBatchReadYourWrites(t *testing.T) {
	db := newShopDB(t)
	v := shopView(t, db)
	wb := db.NewWriteBatch()
	if err := wb.Insert("customer", []ojv.Row{{ojv.Int(9), ojv.Str("eve")}}); err != nil {
		t.Fatal(err)
	}
	if row, ok, err := wb.Get("customer", []ojv.Value{ojv.Int(9)}); err != nil || !ok || !row.Equal(ojv.Row{ojv.Int(9), ojv.Str("eve")}) {
		t.Fatalf("Get staged row = %v %v %v", row, ok, err)
	}
	hasEve := func() bool {
		for _, r := range v.Rows() {
			if r[0].Equal(ojv.Int(9)) {
				return true
			}
		}
		return false
	}
	if hasEve() {
		t.Fatal("a staged statement reached the view before a flush")
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	// eve's null-extended tuple is in the view.
	if !hasEve() || wb.PendingStatements() != 0 {
		t.Fatalf("after Flush: pending=%d, eve in the view=%v", wb.PendingStatements(), hasEve())
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchThresholdFlush drives threshold flushing the way a caller does
// it: Flush whenever PendingRows reaches the bound. Every flush drains the
// queue, and the flush metrics account for every staged row.
func TestBatchThresholdFlush(t *testing.T) {
	db := newShopDB(t)
	v := shopView(t, db)
	m := ojv.NewMetrics()
	wb := db.NewWriteBatch(ojv.BatchOptions{Metrics: m})
	for i := int64(0); i < 25; i++ {
		if err := wb.Insert("customer", []ojv.Row{{ojv.Int(100 + i), ojv.Str("c")}}); err != nil {
			t.Fatal(err)
		}
		if wb.PendingRows() >= 10 {
			if err := wb.Flush(); err != nil {
				t.Fatal(err)
			}
			if wb.PendingRows() != 0 {
				t.Fatalf("pending after a threshold flush = %d, want 0", wb.PendingRows())
			}
		}
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap["view.flush.count"] != 3 {
		t.Errorf("flush count = %d, want 2 threshold flushes and the Close", snap["view.flush.count"])
	}
	if got := snap["view.flush.rows.flushed"] + snap["view.flush.rows.coalesced"]; got != 25 {
		t.Errorf("accounted rows = %d, want 25", got)
	}
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchBackgroundFlusher runs the timed flusher README "Group commit"
// shows a caller building from its own ticker: a goroutine that flushes on
// every tick while Err is nil drains the queue without the writer calling
// Flush.
func TestBatchBackgroundFlusher(t *testing.T) {
	db := newShopDB(t)
	v := shopView(t, db)
	wb := db.NewWriteBatch()
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	go func() {
		defer close(stopped)
		for ctx.Err() == nil {
			<-tick.C
			if wb.Err() == nil {
				wb.Flush()
			}
		}
	}()
	if err := wb.Insert("customer", []ojv.Row{{ojv.Int(9), ojv.Str("eve")}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for wb.PendingStatements() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("the ticker's flushes never drained the queue")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-stopped
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchPoisonedFlush injects a maintenance fault at flush and checks
// the contract: state unchanged, pending statements preserved, sticky Err,
// successful retry after the fault clears, Discard drops everything.
func TestBatchPoisonedFlush(t *testing.T) {
	db := newShopDB(t)
	var failing bool
	v, err := db.CreateView("shop",
		ojv.Table("customer").LeftJoin(ojv.Table("orders"), ojv.Eq("customer", "ck", "orders", "ock")),
		ojv.Columns("customer.ck", "customer.name", "orders.ok", "orders.total"),
		ojv.Options{FailPoint: func(site string) error {
			if failing {
				return errors.New("injected fault at " + site)
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	before := viewFingerprint(v)

	wb := db.NewWriteBatch()
	failing = true
	if err := wb.Insert("customer", []ojv.Row{{ojv.Int(9), ojv.Str("eve")}}); err != nil {
		t.Fatalf("enqueue = %v, want staged without error", err)
	}
	err = wb.Flush()
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("flush err = %v", err)
	}
	if wb.Err() != err {
		t.Fatalf("Err() = %v, want the flush's error %v", wb.Err(), err)
	}
	if wb.PendingStatements() != 1 {
		t.Fatalf("pending = %d after failed flush, want 1 (queue preserved)", wb.PendingStatements())
	}
	if got := viewFingerprint(v); got != before {
		t.Fatal("failed flush changed the view")
	}
	// A poisoned batch still stages statements.
	if err := wb.Insert("customer", []ojv.Row{{ojv.Int(10), ojv.Str("fin")}}); err != nil {
		t.Fatal(err)
	}
	if wb.PendingStatements() != 2 {
		t.Fatalf("pending = %d, want 2", wb.PendingStatements())
	}
	// Retry succeeds once the fault clears and clears Err.
	failing = false
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	if wb.Err() != nil || wb.PendingStatements() != 0 {
		t.Fatalf("after retry: err=%v pending=%d", wb.Err(), wb.PendingStatements())
	}
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
	// Discard drops pending statements and the error.
	failing = true
	if err := wb.Insert("customer", []ojv.Row{{ojv.Int(11), ojv.Str("gus")}}); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err == nil {
		t.Fatal("expected the injected fault from the flush")
	}
	wb.Discard()
	if wb.Err() != nil || wb.PendingStatements() != 0 {
		t.Fatalf("after discard: err=%v pending=%d", wb.Err(), wb.PendingStatements())
	}
	failing = false
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	// The discarded row must not exist.
	if _, ok, _ := wb.Get("customer", []ojv.Value{ojv.Int(11)}); ok {
		t.Fatal("discarded insert visible")
	}
}

// TestSaveDuringFlush is the Database.Save race regression test: Save runs
// concurrently with a writer's statements and another goroutine's flushes,
// and must always serialize a loadable, committed snapshot (never a
// mid-flush state). Run under -race in CI's race-pipeline job.
func TestSaveDuringFlush(t *testing.T) {
	db := newShopDB(t)
	v := shopView(t, db)
	wb := db.NewWriteBatch()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 200; i++ {
			if err := wb.Insert("customer", []ojv.Row{{ojv.Int(500 + i), ojv.Str("s")}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			if err := wb.Flush(); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	saves := 0
	for {
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		// Every snapshot must restore cleanly: OpenSnapshot re-validates
		// keys and foreign keys, so a torn mid-flush state would fail here.
		if _, err := ojv.OpenSnapshot(&buf); err != nil {
			t.Fatalf("snapshot taken during flushes does not load: %v", err)
		}
		saves++
		select {
		case <-flushed:
			if err := wb.Close(); err != nil {
				t.Fatal(err)
			}
			if err := v.Check(); err != nil {
				t.Fatal(err)
			}
			t.Logf("validated %d concurrent snapshots", saves)
			return
		default:
		}
	}
}

// TestBatchClosed checks statements against a closed batch fail cleanly.
func TestBatchClosed(t *testing.T) {
	db := newShopDB(t)
	wb := db.NewWriteBatch()
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wb.Close(); err != nil {
		t.Fatal("second close errored")
	}
	if err := wb.Insert("customer", []ojv.Row{{ojv.Int(9), ojv.Str("x")}}); err == nil {
		t.Fatal("insert on closed batch succeeded")
	}
}

// TestBatchMetricsIdentity checks the accounting identity across flushes:
// Σ staged rows = flushed rows + coalesced-away rows, against manually
// counted expectations.
func TestBatchMetricsIdentity(t *testing.T) {
	db := newShopDB(t)
	v := shopView(t, db)
	m := ojv.NewMetrics()
	wb := db.NewWriteBatch(ojv.BatchOptions{Metrics: m})

	// 3 staged rows: insert(9), insert(10), delete(9) → annihilation leaves
	// net 1, coalesced 2.
	mustIns := func(k int64, name string) {
		t.Helper()
		if err := wb.Insert("customer", []ojv.Row{{ojv.Int(k), ojv.Str(name)}}); err != nil {
			t.Fatal(err)
		}
	}
	mustIns(9, "eve")
	mustIns(10, "fin")
	if _, err := wb.Delete("customer", [][]ojv.Value{{ojv.Int(9)}}); err != nil {
		t.Fatal(err)
	}
	// 2 more staged rows: update(10) twice composes, coalesced +2 … net stays 1.
	for i := 0; i < 2; i++ {
		if err := wb.Update("customer", []ojv.Value{ojv.Int(10)}, ojv.Row{ojv.Int(10), ojv.Str(fmt.Sprintf("fin%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	// Second flush: a plain update, 1 staged, 1 flushed, 0 coalesced.
	if err := wb.Update("customer", []ojv.Value{ojv.Int(1)}, ojv.Row{ojv.Int(1), ojv.Str("ada2")}); err != nil {
		t.Fatal(err)
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}

	snap := m.Snapshot()
	staged, flushed, coalesced := snap["view.flush.rows.staged"], snap["view.flush.rows.flushed"], snap["view.flush.rows.coalesced"]
	if staged != 6 || flushed != 2 || coalesced != 4 {
		t.Errorf("accounting: staged=%d flushed=%d coalesced=%d, want 6/2/4", staged, flushed, coalesced)
	}
	if staged != flushed+coalesced {
		t.Errorf("identity violated: %d != %d + %d", staged, flushed, coalesced)
	}
	if snap["view.flush.count"] != 2 || snap["view.flush.statements"] != 6 {
		t.Errorf("flush.count=%d statements=%d, want 2/6", snap["view.flush.count"], snap["view.flush.statements"])
	}
	if snap["view.flush.size.count"] != 2 || snap["view.flush.latency.us.count"] != 2 {
		t.Errorf("histograms: size.count=%d latency.count=%d, want 2/2",
			snap["view.flush.size.count"], snap["view.flush.latency.us.count"])
	}
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchConcurrentWriters hammers one batch from 8 goroutines over
// disjoint key ranges, each flushing whenever 64 rows are pending, while a
// ninth flushes on a 1 ms ticker, then verifies exact final contents. Run
// under -race in CI's race-pipeline job.
func TestBatchConcurrentWriters(t *testing.T) {
	db := newShopDB(t)
	v := shopView(t, db)
	wb := db.NewWriteBatch()
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	done := make(chan struct{})
	ticker := make(chan struct{})
	go func() {
		defer close(ticker)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if err := wb.Flush(); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(1000 + w*perWriter)
			for i := int64(0); i < perWriter; i++ {
				k := base + i
				if err := wb.Insert("customer", []ojv.Row{{ojv.Int(k), ojv.Str("w")}}); err != nil {
					errs <- err
					return
				}
				if i%3 == 0 {
					if err := wb.Update("customer", []ojv.Value{ojv.Int(k)}, ojv.Row{ojv.Int(k), ojv.Str("u")}); err != nil {
						errs <- err
						return
					}
				}
				if i%5 == 0 {
					if _, err := wb.Delete("customer", [][]ojv.Value{{ojv.Int(k)}}); err != nil {
						errs <- err
						return
					}
				}
				if wb.PendingRows() >= 64 {
					if err := wb.Flush(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	<-ticker
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	// Exact survivor count: per writer, perWriter inserts minus the i%5==0
	// deletions.
	deleted := 0
	for i := int64(0); i < perWriter; i++ {
		if i%5 == 0 {
			deleted++
		}
	}
	want := writers * (perWriter - deleted)
	got := 0
	for i := 0; i < writers; i++ {
		base := int64(1000 + i*perWriter)
		for j := int64(0); j < perWriter; j++ {
			if _, ok, err := wb.Get("customer", []ojv.Value{ojv.Int(base + j)}); err != nil {
				t.Fatal(err)
			} else if ok {
				got++
			}
		}
	}
	if got != want {
		t.Errorf("surviving rows = %d, want %d", got, want)
	}
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchFallbackEquivalence interleaves synchronous statements with a
// batch's enqueues. Every flush re-validates through the catalog, so the
// flush either yields the state the same statements reach when run
// synchronously in flush order, or — when a synchronous write broke a
// constraint a staged row relied on — fails atomically: the view and the
// tables stay as the synchronous writes left them, the statements stay
// pending and Err is set.
func TestBatchFallbackEquivalence(t *testing.T) {
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	del := func(db *ojv.Database, table string, key ...ojv.Value) error {
		_, err := db.Delete(table, [][]ojv.Value{key})
		return err
	}
	order12 := ojv.Row{ojv.Int(12), ojv.Int(3), ojv.Float(75), ojv.MustDate("2007-04-17")}
	cases := []struct {
		name string
		// run stages statements into wb and interleaves synchronous ones.
		run func(t *testing.T, db *ojv.Database, wb *ojv.WriteBatch)
		// ref runs the same statements synchronously in flush order; nil
		// when the flush must fail.
		ref func(t *testing.T, db *ojv.Database)
	}{
		{"sync-insert-between-enqueues", func(t *testing.T, db *ojv.Database, wb *ojv.WriteBatch) {
			must(t, wb.Insert("customer", []ojv.Row{{ojv.Int(8), ojv.Str("gus")}}))
			must(t, db.Insert("customer", []ojv.Row{{ojv.Int(9), ojv.Str("eve")}}))
			must(t, wb.Update("customer", []ojv.Value{ojv.Int(2)}, ojv.Row{ojv.Int(2), ojv.Str("rob")}))
		}, func(t *testing.T, db *ojv.Database) {
			// The plan's phases put the modify before the insert.
			must(t, db.Insert("customer", []ojv.Row{{ojv.Int(9), ojv.Str("eve")}}))
			must(t, db.Update("customer", []ojv.Value{ojv.Int(2)}, ojv.Row{ojv.Int(2), ojv.Str("rob")}))
			must(t, db.Insert("customer", []ojv.Row{{ojv.Int(8), ojv.Str("gus")}}))
		}},
		// The batch resolved order 11 at enqueue; the synchronous update moves
		// it to another customer, so the flush must maintain the view with the
		// row the catalog deletes.
		{"sync-update-of-batch-deleted-row", func(t *testing.T, db *ojv.Database, wb *ojv.WriteBatch) {
			_, err := wb.Delete("orders", [][]ojv.Value{{ojv.Int(11)}})
			must(t, err)
			must(t, db.Update("orders", []ojv.Value{ojv.Int(11)}, ojv.Row{ojv.Int(11), ojv.Int(3), ojv.Float(55), ojv.MustDate("2007-04-16")}))
		}, func(t *testing.T, db *ojv.Database) {
			must(t, db.Update("orders", []ojv.Value{ojv.Int(11)}, ojv.Row{ojv.Int(11), ojv.Int(3), ojv.Float(55), ojv.MustDate("2007-04-16")}))
			must(t, del(db, "orders", ojv.Int(11)))
		}},
		// The staged lineitem's order goes synchronously (nothing committed
		// references it); the staged order 12 applies first and must unwind.
		{"sync-delete-of-referenced-parent", func(t *testing.T, db *ojv.Database, wb *ojv.WriteBatch) {
			must(t, wb.Insert("orders", []ojv.Row{order12}))
			must(t, wb.Insert("lineitem", []ojv.Row{{ojv.Int(11), ojv.Int(1), ojv.Int(7)}}))
			must(t, del(db, "orders", ojv.Int(11)))
		}, nil},
		// The foreign key is declared while the committed table is empty, so
		// only the staged row violates it.
		{"foreign-key-over-staged-row", func(t *testing.T, db *ojv.Database, wb *ojv.WriteBatch) {
			db.MustCreateTable("note", ojv.Cols(ojv.IntCol("nk"), ojv.NotNull(ojv.IntCol("nok"))), "nk")
			must(t, wb.Insert("orders", []ojv.Row{order12}))
			must(t, wb.Insert("note", []ojv.Row{{ojv.Int(1), ojv.Int(99)}}))
			must(t, db.AddForeignKey("note", []string{"nok"}, "orders", []string{"ok"}))
		}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := newShopDB(t)
			v := shopView(t, db)
			wb := db.NewWriteBatch()
			c.run(t, db, wb)
			tables := func() string {
				var out []string
				for _, name := range []string{"customer", "orders", "lineitem", "note"} {
					if s := db.TableSnapshot(name); s != nil {
						out = append(out, name+":\n"+snapshotRows(s.Rows()))
					}
				}
				return strings.Join(out, "\n")
			}
			beforeView, beforeTables := viewFingerprint(v), tables()
			pending := wb.PendingStatements()
			err := wb.Flush()
			if c.ref == nil {
				if err == nil {
					t.Fatal("flush of a batch a synchronous write invalidated succeeded")
				}
				if wb.Err() == nil {
					t.Error("failed flush did not stick in Err")
				}
				if viewFingerprint(v) != beforeView {
					t.Error("failed flush changed the view")
				}
				if tables() != beforeTables {
					t.Error("failed flush changed the tables")
				}
				if got := wb.PendingStatements(); got != pending {
					t.Errorf("pending statements = %d, want %d (preserved for retry)", got, pending)
				}
				wb.Discard()
			} else {
				must(t, err)
				dbRef := newShopDB(t)
				vRef := shopView(t, dbRef)
				c.ref(t, dbRef)
				if got, want := viewFingerprint(v), viewFingerprint(vRef); got != want {
					t.Errorf("flushed view differs from the synchronous reference\n--- batch ---\n%s\n--- sync ---\n%s", got, want)
				}
			}
			must(t, wb.Close())
			must(t, v.Check())
		})
	}
}

// TestBatchStaleFKFailsAtFlush stages a child insert and then deletes its
// parent. Enqueue validation cannot reject either statement (the parent
// was visible when the insert was checked), so the flush must detect the
// violation, fail atomically, and keep the statements pending.
func TestBatchStaleFKFailsAtFlush(t *testing.T) {
	db := newShopDB(t)
	v := shopView(t, db)
	before := viewFingerprint(v)

	wb := db.NewWriteBatch()
	// Order 11 (customer 2) has no lineitems, so its delete passes the
	// committed-state RESTRICT check at enqueue and at flush.
	if err := wb.Insert("lineitem", []ojv.Row{{ojv.Int(11), ojv.Int(1), ojv.Int(7)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := wb.Delete("orders", [][]ojv.Value{{ojv.Int(11)}}); err != nil {
		t.Fatal(err)
	}
	err := wb.Flush()
	if err == nil {
		t.Fatal("flush of a stale FK batch unexpectedly succeeded")
	}
	if wb.Err() == nil {
		t.Fatal("failed flush did not stick in Err")
	}
	if got := viewFingerprint(v); got != before {
		t.Error("failed flush changed the view")
	}
	if db.TableSnapshot("orders").Len() != 2 {
		t.Error("failed flush changed the orders table")
	}
	if wb.PendingStatements() != 2 {
		t.Errorf("pending statements = %d, want 2 (preserved for retry)", wb.PendingStatements())
	}
	wb.Discard()
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
}
