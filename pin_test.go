package ojv_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ojv"
	"ojv/internal/algebra"
)

// TestPinsNeverWaitBehindMaintenance: a pin seals what has committed under a
// per-container mutex that only a commit's log walk holds, never a flush's
// ΔV^D, so it returns at once while a flush is parked mid-maintenance. A
// WriteBatch flush parks inside a view's FailPoint, holding the write lock
// with its base delta applied and its changeset half staged; meanwhile a
// pin of the table, of a filtered member and of an unfiltered member of one
// view family each returns, without blocking, the epoch of the synchronous
// statement committed just before — one no reader had pinned yet, so the
// pin seals it. After the flush is released each pin sees it. A reader
// pinning all three throughout never sees an epoch go back, a snapshot
// whose Len disagrees with its rows, or a TermCardinality that disagrees
// with them. Run under -race.
func TestPinsNeverWaitBehindMaintenance(t *testing.T) {
	var armed atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	park := func(site string) error {
		if site == "primary-insert" && armed.CompareAndSwap(true, false) {
			parked <- struct{}{}
			<-release
		}
		return nil
	}
	db := ojv.NewDatabase()
	db.MustCreateTable("A", ojv.Cols(ojv.IntCol("ak"), ojv.IntCol("aj"), ojv.IntCol("av")), "ak")
	db.MustCreateTable("B", ojv.Cols(ojv.IntCol("bk"), ojv.IntCol("bj")), "bk")
	member := func(name string, lt int64, opts ...ojv.Options) *ojv.View {
		expr := ojv.Table("A").Where(ojv.Cmp("A", "av", algebra.OpLt, ojv.Int(lt))).LeftJoin(ojv.Table("B"), ojv.Eq("A", "aj", "B", "bj"))
		v, err := db.CreateView(name, expr, ojv.Columns("A.ak", "A.aj", "A.av", "B.bk", "B.bj"), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// The family stores σ(av < 10): the wide view is its whole selection and
	// reads every stored row, the narrow one is filtered.
	narrow, wide := member("narrow", 5, ojv.Options{FailPoint: park}), member("wide", 10)
	if narrow.Maintainer() != wide.Maintainer() {
		t.Fatal("the two views are not one family")
	}
	if err := db.Insert("B", []ojv.Row{{ojv.Int(1), ojv.Int(1)}, {ojv.Int(2), ojv.Int(2)}}); err != nil {
		t.Fatal(err)
	}
	next := int64(0)
	rowsOf := func(n int) []ojv.Row {
		out := make([]ojv.Row, n)
		for i := range out {
			out[i] = ojv.Row{ojv.Int(next), ojv.Int(next % 4), ojv.Int(next % 12)}
			next++
		}
		return out
	}
	// want counts the A rows each pinned object holds: the table all of them,
	// a view those below its bound (B keys are unique per bj, so one view row
	// per A row).
	want := func(lt int64) int {
		n := 0
		for k := int64(0); k < next; k++ {
			if lt < 0 || k%12 < lt {
				n++
			}
		}
		return n
	}

	type pin struct {
		name  string
		epoch func() (uint64, int, error)
		lt    int64
	}
	viewPin := func(v *ojv.View) func() (uint64, int, error) {
		return func() (uint64, int, error) {
			s := v.Snapshot()
			rows := s.Rows()
			if len(rows) != s.Len() {
				return 0, 0, fmt.Errorf("epoch %d: %d rows, Len %d", s.Epoch(), len(rows), s.Len())
			}
			joined := 0
			for _, r := range rows {
				if !r[3].IsNull() {
					joined++
				}
			}
			if a, ab := s.TermCardinality([]string{"A"}), s.TermCardinality([]string{"A", "B"}); a != len(rows)-joined || ab != joined {
				return 0, 0, fmt.Errorf("epoch %d: TermCardinality A %d, A,B %d; the rows say %d and %d", s.Epoch(), a, ab, len(rows)-joined, joined)
			}
			return s.Epoch(), s.Len(), nil
		}
	}
	pins := []pin{
		{"table A", func() (uint64, int, error) {
			s := db.TableSnapshot("A")
			if n := len(s.Rows()); n != s.Len() {
				return 0, 0, fmt.Errorf("epoch %d: %d rows, Len %d", s.Epoch(), n, s.Len())
			}
			return s.Epoch(), s.Len(), nil
		}, -1},
		{"filtered member", viewPin(narrow), 5},
		{"unfiltered member", viewPin(wide), 10},
	}

	// The reader pins all three throughout.
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		last := make([]uint64, len(pins))
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, p := range pins {
				e, _, err := p.epoch()
				if err == nil && e < last[i] {
					err = fmt.Errorf("epoch went back: %d after %d", e, last[i])
				}
				if err != nil {
					t.Errorf("reader, %s: %v", p.name, err)
					return
				}
				last[i] = e
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()

	// check pins every object within a deadline and holds it against want.
	check := func(when string, after []uint64) []uint64 {
		t.Helper()
		epochs := make([]uint64, len(pins))
		for i, p := range pins {
			type result struct {
				e   uint64
				n   int
				err error
			}
			got := make(chan result, 1)
			go func() {
				e, n, err := p.epoch()
				got <- result{e, n, err}
			}()
			select {
			case r := <-got:
				switch {
				case r.err != nil:
					t.Fatalf("%s, %s: %v", when, p.name, r.err)
				case r.n != want(p.lt):
					t.Fatalf("%s, %s: %d rows, want %d", when, p.name, r.n, want(p.lt))
				case after != nil && r.e <= after[i]:
					t.Fatalf("%s, %s: epoch %d, not past %d", when, p.name, r.e, after[i])
				}
				epochs[i] = r.e
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: a pin of the %s waited behind the flush", when, p.name)
			}
		}
		return epochs
	}

	if err := db.Insert("A", rowsOf(24)); err != nil {
		t.Fatal(err)
	}
	first := check("after the first statement", nil)
	// A statement no one pins: its epochs stay open until the pins below.
	if err := db.Insert("A", rowsOf(12)); err != nil {
		t.Fatal(err)
	}
	committed := next

	wb := db.NewWriteBatch()
	defer wb.Close()
	if err := wb.Insert("A", rowsOf(12)); err != nil {
		t.Fatal(err)
	}
	flushed := next
	next = committed
	armed.Store(true)
	errc := make(chan error, 1)
	go func() { errc <- wb.Flush() }()
	<-parked
	during := check("while the flush is parked", first)
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	next = flushed
	check("after the flush", during)
}
