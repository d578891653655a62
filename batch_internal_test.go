package ojv

import (
	"errors"
	"testing"

	"ojv/internal/pipeline"
	"ojv/internal/rel"
)

// lifecycleDB builds a minimal database with one view for the batch
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

// TestBatchPoisonedClose pins Close's contract when its final flush fails:
// Close returns the error and leaves the batch open, so the statements stay
// pending behind Err; Flush+Close then commits them, Discard+Close drops
// them.
func TestBatchPoisonedClose(t *testing.T) {
	for _, recovery := range []string{"flush", "discard"} {
		t.Run(recovery, func(t *testing.T) {
			var failing bool
			db := lifecycleDB(t, Options{FailPoint: func(string) error {
				if failing {
					return errors.New("injected")
				}
				return nil
			}})
			wb := db.NewWriteBatch()
			if err := wb.Insert("c", []Row{{Int(1), Str("a")}}); err != nil {
				t.Fatal(err)
			}
			failing = true
			if err := wb.Close(); err == nil {
				t.Fatal("Close of a poisoned batch reported success")
			}
			wb.mu.Lock()
			closed := wb.closed
			wb.mu.Unlock()
			if closed || wb.Err() == nil || wb.PendingStatements() != 1 {
				t.Fatalf("after a poisoned Close: closed=%v Err()=%v pending=%d, want open, poisoned, 1 pending",
					closed, wb.Err(), wb.PendingStatements())
			}
			failing = false
			want := 1
			if recovery == "discard" {
				wb.Discard()
				want = 0
			} else if err := wb.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := wb.Close(); err != nil {
				t.Fatal(err)
			}
			if err := wb.Insert("c", []Row{{Int(2), Str("b")}}); err == nil {
				t.Fatal("a statement staged into the closed batch")
			}
			if got := db.View("v").Len(); got != want {
				t.Fatalf("view rows after %s+Close = %d, want %d", recovery, got, want)
			}
		})
	}
}

// TestDispatchOrder pins the size-ordered component dispatch: largest net
// delta first, stable for ties.
func TestDispatchOrder(t *testing.T) {
	row := rel.Row{rel.Int(1)}
	step := func(n int) pipeline.Step {
		s := pipeline.Step{Table: "t", Op: pipeline.OpInsert}
		for i := 0; i < n; i++ {
			s.Added = append(s.Added, row)
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

// TestFlushPlanningPanicContained: a panic while a flush plans — here in
// partition, which a nil family in the database's list makes dereference
// nil — is the flush's error, a *PanicError behind Err, and changes
// nothing: the queue keeps every statement, the view and the table read as
// before, and a later Flush, once the cause is gone, commits them.
func TestFlushPlanningPanicContained(t *testing.T) {
	db := lifecycleDB(t)
	wb := db.NewWriteBatch()
	defer wb.Close()
	if err := wb.Insert("c", []Row{{Int(1), Str("a")}, {Int(2), Str("b")}}); err != nil {
		t.Fatal(err)
	}
	families := db.families
	db.mu.Lock()
	db.families = append(families[:len(families):len(families)], nil)
	db.mu.Unlock()
	err := wb.Flush()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Flush = %v, want a *PanicError", err)
	}
	if !errors.As(wb.Err(), &pe) {
		t.Fatalf("Err() = %v, want the flush's *PanicError", wb.Err())
	}
	if got := wb.PendingStatements(); got != 1 {
		t.Fatalf("%d statements pending after the panic, want 1", got)
	}
	if got := wb.PendingRows(); got != 2 {
		t.Fatalf("%d rows pending after the panic, want 2", got)
	}
	if got := db.View("v").Len(); got != 0 {
		t.Fatalf("view has %d rows after the failed flush, want 0", got)
	}
	if got := db.TableSnapshot("c").Len(); got != 0 {
		t.Fatalf("table c has %d rows after the failed flush, want 0", got)
	}
	db.mu.Lock()
	db.families = families
	db.mu.Unlock()
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	if wb.Err() != nil || wb.PendingStatements() != 0 {
		t.Fatalf("after the retry: Err() = %v, %d statements pending", wb.Err(), wb.PendingStatements())
	}
	if got := db.View("v").Len(); got != 2 {
		t.Fatalf("view has %d rows after the retry, want 2", got)
	}
	if err := db.View("v").Check(); err != nil {
		t.Fatal(err)
	}
}
