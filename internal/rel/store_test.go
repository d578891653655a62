package rel

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// versionedStore is a bare Store of n rows {i, "a"} under their encoded
// keys, versioned, with a pin that seals it the way an owner's does.
type versionedStore struct {
	s Store
	// ep is the owner's epoch, stored by publish; seals counts the calls.
	ep    atomic.Pointer[RowVec]
	seq   uint64
	seals int
}

func newVersionedStore(n int) *versionedStore {
	v := new(versionedStore)
	v.s.Init(nil, true)
	for i := 0; i < n; i++ {
		v.s.Fill(EncodeValues(Int(int64(i))), Row{Int(int64(i)), Str("a")})
	}
	v.s.Locked(func() { v.ep.Store(v.s.Version(nil)) })
	return v
}

func (v *versionedStore) publish(rows *RowVec, seq uint64) {
	v.ep.Store(rows)
	v.seq = seq
	v.seals++
}

// pin returns the current epoch, sealing it first when the store is dirty.
func (v *versionedStore) pin() *RowVec {
	if v.s.Dirty() {
		v.s.Locked(func() { v.s.Seal(v.publish) })
	}
	return v.ep.Load()
}

// TestUnpinnedCommitsCopyOnce: commits with no pin between them walk their
// logs into one open transaction, so each vector node they touch is copied
// once, however many of them touch it, and the pin that follows seals all of
// them at the sequence number of the last. 64 commits of one random
// in-place update each over a store of 4 096 rows copy at most the distinct
// nodes on the touched handles' paths, where publishing at every commit
// copied a path per commit; 64 commits that insert and delete one row,
// alternately, all at the handle the free list hands back, copy exactly
// what the first one copies. No commit seals: the owner's epoch stays the
// one pinned until the next pin, which leaves no transaction open. The
// table subtest runs the first half through a catalog, whose commits are
// Table.publishEpoch and whose pin is Table.Snapshot. Base tables and view
// families share the mechanism; the family test (internal/view) adds its
// membership words and per-member numbers.
func TestUnpinnedCommitsCopyOnce(t *testing.T) {
	const n, commits = 4096, 64
	v := newVersionedStore(n)
	before := v.pin()
	// A node is named by its level and its handles' common prefix: level 1 is
	// the leaves, level height+1 the root.
	nodes := make(map[[2]int64]bool)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < commits; i++ {
		h, _ := v.s.Lookup(EncodeValues(Int(int64(rng.Intn(n)))))
		v.s.Update(h, Row{v.s.At(h).Row[0], Str(string(rune('b' + i)))})
		for lvl := 1; lvl <= before.height+1; lvl++ {
			nodes[[2]int64{int64(lvl), int64(h) >> (uint(lvl) * vecBits)}] = true
		}
		v.s.Commit(0, uint64(i+1), nil, nil)
	}
	if v.ep.Load() != before || v.seals != 0 || !v.s.Dirty() {
		t.Fatal("a commit sealed an epoch no reader pinned")
	}
	if got := v.s.open.Copied(); got > len(nodes) {
		t.Errorf("%d unpinned updates copied %d nodes, their paths have %d distinct ones", commits, got, len(nodes))
	}
	after := v.pin()
	if v.seq != commits || v.seals != 1 || v.s.open != nil || v.s.Dirty() {
		t.Fatalf("the pin sealed commit %d in %d seals (open transaction %v), want commit %d in one", v.seq, v.seals, v.s.open, commits)
	}
	for h := int32(0); h < n; h++ {
		if old, _ := before.Get(h); old[1].AsString() != "a" {
			t.Fatalf("the pinned epoch changed under the open transaction at handle %d: %v", h, old)
		}
		if got, _ := after.Get(h); !sameRow(got, v.s.At(h).Row) {
			t.Fatalf("sealed row %v at handle %d, the slab %v", got, h, v.s.At(h).Row)
		}
	}

	var first int
	k := EncodeValues(Int(n))
	for i := 0; i < commits; i++ {
		if i%2 == 0 {
			v.s.Insert(k, Row{Int(n), Str("x")})
		} else {
			h, _ := v.s.Lookup(k)
			v.s.Remove(h)
		}
		v.s.Commit(0, uint64(commits+i+1), nil, nil)
		if i == 0 {
			first = v.s.open.Copied()
		}
	}
	if got := v.s.open.Copied(); got != first || first == 0 {
		t.Errorf("%d unpinned inserts and deletes copied %d nodes, the first alone %d", commits, got, first)
	}
	if v.ep.Load() != after {
		t.Fatal("a commit sealed an epoch no reader pinned")
	}
	if got := v.pin(); v.seq != 2*commits || got.Len() != n || v.s.Len() != n {
		t.Fatalf("the pin sealed commit %d with %d rows, want commit %d with %d", v.seq, got.Len(), 2*commits, n)
	}
	t.Run("table", func(t *testing.T) {
		c := epochFixture(t)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{Int(int64(i)), Str("a")}
		}
		if err := c.Insert("t", rows); err != nil {
			t.Fatal(err)
		}
		c.PublishEpochs()
		tab, before := c.Table("t"), c.Snapshot("t")
		nodes := make(map[[2]int64]bool)
		for i := 0; i < commits; i++ {
			k := int64(rng.Intn(n))
			if _, err := c.Update("t", []Value{Int(k)}, Row{Int(k), Str(fmt.Sprint("v", i))}); err != nil {
				t.Fatal(err)
			}
			h, _ := tab.rows.Lookup(EncodeValues(Int(k)))
			for lvl := 1; lvl <= before.rows.height+1; lvl++ {
				nodes[[2]int64{int64(lvl), int64(h) >> (uint(lvl) * vecBits)}] = true
			}
			c.PublishTableEpochs([]string{"t"})
		}
		if tab.epoch.Load() != before || !tab.rows.Dirty() {
			t.Fatal("a table commit sealed an epoch no reader pinned")
		}
		if got := tab.rows.open.Copied(); got > len(nodes) {
			t.Errorf("%d unpinned table commits copied %d nodes, their paths have %d distinct ones", commits, got, len(nodes))
		}
		after := c.Snapshot("t")
		if after.Epoch() != before.Epoch()+commits || tab.rows.open != nil || tab.rows.Dirty() {
			t.Fatalf("the pin sealed epoch %d (open transaction %v), want %d", after.Epoch(), tab.rows.open, before.Epoch()+commits)
		}
		if snapKeys(before)[0] != "a" {
			t.Fatal("the pinned epoch changed under the open transaction")
		}
		for _, r := range after.Rows() {
			if live, ok := tab.Get(r[0]); !ok || !live.Equal(r) {
				t.Fatalf("sealed row %v, live %v (%v)", r, live, ok)
			}
		}
		checkEpochSlots(t, tab)
	})
}

// TestCommitPanicReleasesSealMutex: a panic in a commit's walk, here raised
// by its per-record hook, releases the seal mutex and keeps the open
// transaction unsealable, so a pin from another goroutine returns at once,
// with the last sealed epoch — also when an earlier commit, walked but not
// sealed, had left the store dirty. ojv.PanicError documents this. The next
// commit walks the interrupted records again: the pin after it seals the
// earlier commit, the interrupted one and its own. A rollback in between
// leaves the interrupted records, which are committed, where they are.
func TestCommitPanicReleasesSealMutex(t *testing.T) {
	v := newVersionedStore(64)
	sealed := v.pin()
	v.s.Insert(EncodeValues(Int(64)), Row{Int(64), Str("b")})
	v.s.Commit(0, 1, nil, nil) // unsealed: the pin below must take the mutex
	v.s.Insert(EncodeValues(Int(65)), Row{Int(65), Str("c")})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the walk's hook did not panic")
			}
		}()
		v.s.Commit(0, 2, func(int32, Row, Row, bool) { panic("walk") }, nil)
	}()
	got := make(chan *RowVec, 1)
	go func() { got <- v.pin() }()
	select {
	case ep := <-got:
		if ep != sealed || ep.Len() != 64 {
			t.Fatalf("the pin returned an epoch of %d rows, not the last sealed one of 64", ep.Len())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a pin still waits on the seal mutex after the walk panicked")
	}
	if v.s.Dirty() || v.seals != 0 {
		t.Fatalf("the panicked walk left the store dirty (%v) or sealed %d epochs", v.s.Dirty(), v.seals)
	}

	v.s.Insert(EncodeValues(Int(66)), Row{Int(66), Str("d")})
	if err := v.s.Rollback(0); err != nil || v.s.Len() != 66 {
		t.Fatalf("rollback over the interrupted commit: %v, %d rows, want 66", err, v.s.Len())
	}
	h, _ := v.s.Lookup(EncodeValues(Int(0)))
	v.s.Remove(h)
	v.s.Commit(v.s.Pending()-1, 3, nil, nil) // only its own record, and the interrupted ones
	ep := v.pin()
	if v.seq != 3 || ep.Len() != 65 || v.s.Pending() != 0 {
		t.Fatalf("the pin after the next commit sealed commit %d with %d rows (%d records left), want 3, 65 and 0", v.seq, ep.Len(), v.s.Pending())
	}
	for _, k := range []int64{64, 65} {
		h, _ := v.s.Lookup(EncodeValues(Int(k)))
		if row, ok := ep.Get(h); !ok || !sameRow(row, v.s.At(h).Row) {
			t.Fatalf("row %d is not in the epoch sealed after the interrupted commit", k)
		}
	}
	if _, ok := ep.Get(h); ok && v.s.At(h).Row == nil {
		t.Fatal("the deleted row 0 is still in the epoch")
	}
}

// TestCommitPanicSegments: the interrupted records of a run nested in
// another are committed: the inner run's rollback leaves them, the next
// inner commit walks them with its own and releases their deleted slots,
// and a rollback of the outer run, which began before them, undoes nothing
// (ErrInterrupted) until they are walked. Meanwhile a deleted row whose
// slot is not released yet is in no epoch Version seals.
func TestCommitPanicSegments(t *testing.T) {
	v := newVersionedStore(4)
	key := func(i int64) string { return EncodeValues(Int(i)) }
	v.s.Insert(key(10), Row{Int(10), Str("outer")})
	inner := v.s.Pending()
	h, _ := v.s.Lookup(key(1))
	v.s.Remove(h)
	func() {
		defer func() { recover() }()
		v.s.Commit(inner, 1, nil, func() { panic("done") })
	}()
	if err := v.s.Rollback(0); !errors.Is(err, ErrInterrupted) || v.s.Pending() != 2 {
		t.Fatalf("outer rollback across the interrupted commit: %v, %d records left, want 2", err, v.s.Pending())
	}
	if err := v.s.Rollback(inner); err != nil || v.s.Pending() != 2 {
		t.Fatalf("rollback of the interrupted run: %v, %d records left, want 2", err, v.s.Pending())
	}
	v.s.Locked(func() {
		if ep := v.s.Version(nil); ep.Len() != 4 || v.s.At(h).Row == nil {
			t.Fatalf("versioned %d rows over a deleted, unreleased slot, want 4", ep.Len())
		} else if _, ok := ep.Get(h); ok {
			t.Fatal("Version sealed the deleted row")
		}
	})
	next := v.s.Pending()
	v.s.Insert(key(12), Row{Int(12), Str("inner")})
	v.s.Commit(next, 2, nil, nil)
	if v.s.Pending() != inner || v.s.At(h).Row != nil {
		t.Fatalf("the next inner commit left %d records (want %d), the deleted slot %v", v.s.Pending(), inner, v.s.At(h).Row)
	}
	// Version sealed the outer run's row 10 with the rest.
	if ep := v.pin(); v.seq != 2 || ep.Len() != 5 {
		t.Fatalf("sealed commit %d with %d rows, want 2 with 5: row 1 out, rows 10 and 12 in", v.seq, ep.Len())
	}
	if err := v.s.Rollback(0); err != nil || v.s.Len() != 4 {
		t.Fatalf("outer rollback after the walk: %v, %d rows, want 4", err, v.s.Len())
	}
}

// TestStoreLogSegments: a run that nests inside another commits or rolls
// back its own segment of the log (Pending marks where it began), and the
// outer run's rollback then checks every slot against its own records: a
// row the inner run deleted and committed is where the outer log did not
// leave it. Adopt takes another store's rows and empties the log.
func TestStoreLogSegments(t *testing.T) {
	v := newVersionedStore(4)
	key := func(i int64) string { return EncodeValues(Int(i)) }
	a := v.s.Insert(key(10), Row{Int(10), Str("outer")})
	inner := v.s.Pending()
	v.s.Insert(key(11), Row{Int(11), Str("inner")})
	h, _ := v.s.Lookup(key(0))
	v.s.Remove(h)
	if err := v.s.Rollback(inner); err != nil || v.s.Pending() != inner || v.s.Len() != 5 {
		t.Fatalf("inner rollback: %v, %d records and %d rows left, want %d and 5", err, v.s.Pending(), v.s.Len(), inner)
	}
	if got, ok := v.s.Lookup(key(0)); !ok || got != h {
		t.Fatalf("row 0 relinked at %d (%v), want %d", got, ok, h)
	}
	v.s.Remove(a)
	v.s.Commit(inner, 1, nil, nil)
	if v.s.Pending() != inner {
		t.Fatalf("inner commit left %d records, want the outer %d", v.s.Pending(), inner)
	}
	if err := v.s.Rollback(0); !errors.Is(err, ErrMutatedOutside) || v.s.Pending() != 0 {
		t.Fatalf("outer rollback over a slot the inner run released: %v, %d records left", err, v.s.Pending())
	}

	var fresh Store
	fresh.Init(nil, true)
	fresh.Fill(key(7), Row{Int(7), Str("fresh")})
	v.s.Insert(key(12), Row{Int(12), Str("dropped")})
	v.s.Adopt(&fresh)
	if v.s.Len() != 1 || v.s.Pending() != 0 || v.s.Used() != 1 || len(v.s.slab.Free()) != 0 {
		t.Fatalf("adopted store: %d rows, %d records, %d handles", v.s.Len(), v.s.Pending(), v.s.Used())
	}
	v.s.Locked(func() {
		if ep := v.s.Version(nil); ep != v.s.Sealed() || ep.Len() != 1 || v.s.open != nil {
			t.Fatalf("versioned the adopted rows into %d, want 1", ep.Len())
		}
	})
}
