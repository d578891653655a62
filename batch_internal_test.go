package ojv

import (
	"errors"
	"testing"
	"time"

	"ojv/internal/pipeline"
	"ojv/internal/rel"
)

// lifecycleDB builds a minimal database with one view for flusher
// lifecycle tests (the external fixtures live in package ojv_test and are
// not visible here).
func lifecycleDB(t *testing.T, opts ...Options) *Database {
	t.Helper()
	db := NewDatabase()
	db.MustCreateTable("c", Cols(IntCol("ck"), StrCol("name")), "ck")
	db.MustCreateTable("o", Cols(IntCol("ok"), NotNull(IntCol("ock")), FloatCol("total")), "ok")
	if err := db.AddForeignKey("o", []string{"ock"}, "c", []string{"ck"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateView("v",
		Table("c").LeftJoin(Table("o"), Eq("c", "ck", "o", "ock")),
		Columns("c.ck", "c.name", "o.ok", "o.total"), opts...); err != nil {
		t.Fatal(err)
	}
	return db
}

// waitDone asserts the maintenance goroutine has exited.
func waitDone(t *testing.T, b *WriteBatch, when string) {
	t.Helper()
	select {
	case <-b.done:
	case <-time.After(5 * time.Second):
		t.Fatalf("maintenance goroutine still running %s", when)
	}
}

// TestBatchCloseStopsPoisonedFlusher is the goroutine-leak regression
// test: Close on a poisoned batch must return the flush error AND stop the
// maintenance goroutine, so an abandoned poisoned batch leaks nothing. The
// batch stays open for retry; a successful Flush plus Close finishes the
// shutdown.
func TestBatchCloseStopsPoisonedFlusher(t *testing.T) {
	var failing bool
	db := lifecycleDB(t, Options{FailPoint: func(string) error {
		if failing {
			return errors.New("injected")
		}
		return nil
	}})
	wb := db.NewWriteBatch(BatchOptions{FlushInterval: time.Hour})
	if err := wb.Insert("c", []Row{{Int(1), Str("a")}}); err != nil {
		t.Fatal(err)
	}
	failing = true
	if err := wb.Close(); err == nil {
		t.Fatal("Close of a poisoned batch reported success")
	}
	waitDone(t, wb, "after poisoned Close")
	wb.mu.Lock()
	closed := wb.closed
	wb.mu.Unlock()
	if closed {
		t.Fatal("poisoned Close marked the batch closed; pending statements would be lost")
	}
	failing = false
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.View("v").Len(); got != 1 {
		t.Fatalf("view rows after recovered close = %d, want 1", got)
	}
}

// TestBatchCloseStopsFlusher checks the plain shutdown path: after a clean
// Close the maintenance goroutine is gone and a stale threshold kick
// cannot resurrect a flush.
func TestBatchCloseStopsFlusher(t *testing.T) {
	db := lifecycleDB(t)
	wb := db.NewWriteBatch(BatchOptions{FlushRows: 1000, FlushInterval: time.Millisecond})
	if err := wb.Insert("c", []Row{{Int(1), Str("a")}}); err != nil {
		t.Fatal(err)
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, wb, "after Close")
	// A kick after shutdown must be inert: nothing drains it, and a direct
	// async flush attempt sees the closed batch and refuses.
	select {
	case wb.kick <- struct{}{}:
	default:
	}
	wb.flushAsync("rows")
	if err := wb.Close(); err != nil {
		t.Fatal("second Close errored")
	}
}

// TestBatchDiscardAfterPoisonedCloseAllowsClose exercises the documented
// recovery path that drops the statements instead of retrying them.
func TestBatchDiscardAfterPoisonedCloseAllowsClose(t *testing.T) {
	var failing bool
	db := lifecycleDB(t, Options{FailPoint: func(string) error {
		if failing {
			return errors.New("injected")
		}
		return nil
	}})
	wb := db.NewWriteBatch(BatchOptions{FlushInterval: time.Hour})
	if err := wb.Insert("c", []Row{{Int(1), Str("a")}}); err != nil {
		t.Fatal(err)
	}
	failing = true
	if err := wb.Close(); err == nil {
		t.Fatal("Close of a poisoned batch reported success")
	}
	wb.Discard()
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, wb, "after Discard+Close")
	if got := db.View("v").Len(); got != 0 {
		t.Fatalf("discarded statement reached the view (rows=%d)", got)
	}
}

// TestDispatchOrder pins the size-ordered component dispatch: largest net
// delta first, stable for ties.
func TestDispatchOrder(t *testing.T) {
	row := rel.Row{rel.Int(1)}
	step := func(n int) pipeline.Step {
		s := pipeline.Step{Table: "t", Op: pipeline.OpInsert}
		for i := 0; i < n; i++ {
			s.Rows = append(s.Rows, row)
		}
		return s
	}
	comps := []flushComponent{
		{steps: []pipeline.Step{step(1)}},          // 1 row
		{steps: []pipeline.Step{step(4), step(2)}}, // 6 rows
		{steps: []pipeline.Step{step(3)}},          // 3 rows
		{steps: []pipeline.Step{step(3)}},          // 3 rows (ties keep plan order)
		{},                                         // empty component
	}
	got := dispatchOrder(comps)
	want := []int{1, 2, 3, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatchOrder = %v, want %v", got, want)
		}
	}
}
