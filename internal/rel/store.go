package rel

import (
	"errors"
	"sync"
	"sync/atomic"
)

// The versioned row container: what a base table and a view family share.
//
// A Store owns everything a container of rows needs to be written under an
// undo log and read through sealed epochs: the key→handle index
// (keyindex.go) and the slab the rows live in (slab.go), the log of the
// mutations since the last commit, the rollback over it, the commit walk
// into the open transaction of the next epoch (epoch.go, rowvec.go), and
// the seal mutex, dirty mark and sequence number a pin works with. What else refers to a row refers to
// its handle, and is the owner's: a table's indexes (table.go), a view's
// per-table chains and term counters, a family's membership words
// (internal/view). The owner keeps them in step through its link hook,
// which the Store calls whenever a row comes into sight under its key or
// leaves it.
//
// A log record is {kind, handle}: 8 bytes, no pointer, so the collector
// never scans a log and a view's log costs 8 bytes a row. An in-place update
// — only a table makes them — also puts the row it replaced on a side list.
// A delete only takes its row out of sight and leaves it in its slot:
// rollback relinks it at its handle, and the commit walk releases the slot.
// So a rolled-back log leaves every live row at the handle it had, the
// epoch the commits walk into — a vector indexed by handle — equals the
// committed slab slot for slot, and the walk is the only place a logged
// container's slots are released.

// Undo kinds: what a log record reverts.
const (
	undoInsert uint8 = iota
	undoDelete
	undoUpdate
)

// undo is one logged mutation: its kind and the handle it touched.
type undo struct {
	kind uint8
	h    int32
}

// ErrMutatedOutside reports a log record whose slot is not in the state the
// record left it in: the container was changed past its log.
var ErrMutatedOutside = errors.New("rel: a logged row is not where its log left it")

// Store is a handle-addressed, key-unique, undo-logged row container with
// sealed epochs. Init it before use.
type Store struct {
	// keys files every linked row's handle under the hash of its slot's key.
	keys keyIndex
	slab Slab
	// hook is the owner's link hook: link reports whether the row in slot h
	// comes into sight (true) or leaves it (false); the key index has just
	// been, or is about to be, updated. nil: the owner indexes nothing.
	hook func(h int32, link bool)
	// log lists the mutations since the last commit, and olds the rows the
	// updates among them replaced, in log order. logged is false while the
	// owner keeps no log: a delete then releases its slot at once.
	log    []undo
	olds   []Row
	logged bool

	// mu is the seal mutex: a commit's walk and a seal hold it, never
	// anything longer. sealed is the last sealed epoch (nil until Version),
	// open the transaction the commits since walked into (nil: none), seq
	// the owner's number of the last of those commits, and dirty is set
	// while open is. mu guards sealed, open and seq.
	mu     sync.Mutex
	sealed *RowVec
	open   *VecTx[Row]
	seq    uint64
	dirty  atomic.Bool
	// behind is set after a panic interrupted a commit: the log's records
	// from walkFrom to walkTo are committed, the open transaction may hold
	// some of them (and is then left with no dirty mark, see Seal) and their
	// deleted slots are not released. A rollback leaves those records alone,
	// and the next commit walks them again.
	behind           bool
	walkFrom, walkTo int
}

// Init makes the store empty, with the owner's link hook, logging from the
// start or not until Version.
func (s *Store) Init(hook func(h int32, link bool), logged bool) {
	s.keys, s.hook, s.logged = keyIndex{}, hook, logged
}

// Len returns the number of linked rows.
func (s *Store) Len() int { return s.keys.Len() }

// Lookup returns the handle of the row linked under key k.
func (s *Store) Lookup(k string) (int32, bool) { return lookup(s, k) }

// LookupBytes is Lookup for a key held in a reusable byte buffer.
func (s *Store) LookupBytes(k []byte) (int32, bool) { return lookup(s, k) }

// lookup probes k's hash and compares k with the key of each handle filed
// under it.
func lookup[K string | []byte](s *Store, k K) (int32, bool) {
	p := s.keys.probe(keyHash(k))
	for h, ok := s.keys.next(&p); ok; h, ok = s.keys.next(&p) {
		if s.slab.At(h).Key == string(k) {
			return h, true
		}
	}
	return 0, false
}

// Handles calls yield with the handle of every linked row, in unspecified
// order, until it returns false. The store must not change meanwhile.
func (s *Store) Handles(yield func(h int32) bool) { s.keys.each(yield) }

// At returns the slot of handle h. Only the Store writes a slot.
func (s *Store) At(h int32) *Slot { return s.slab.At(h) }

// Used returns the number of handles the slab ever handed out.
func (s *Store) Used() int32 { return s.slab.Used() }

// Append appends every linked row to dst, in unspecified order.
func (s *Store) Append(dst []Row) []Row {
	s.keys.each(func(h int32) bool {
		dst = append(dst, s.slab.At(h).Row)
		return true
	})
	return dst
}

// Pending returns the number of mutations logged since the last commit: the
// mark where a log segment that starts now begins (Commit, Rollback).
func (s *Store) Pending() int { return len(s.log) }

// Fill stores row under key k as committed state, unlogged, and returns its
// handle. No row may be linked under k: the caller has checked. It is for
// filling a container the caller seals from scratch (Version) or never.
func (s *Store) Fill(k string, row Row) int32 {
	h := s.slab.Alloc()
	*s.slab.At(h) = Slot{Key: k, Row: row}
	s.link(h)
	return h
}

// Insert is Fill, logged.
func (s *Store) Insert(k string, row Row) int32 {
	h := s.Fill(k, row)
	if s.logged {
		s.log = append(s.log, undo{kind: undoInsert, h: h})
	}
	return h
}

// Remove takes the row in slot h out of sight, where a commit releases its
// slot; unlogged, the slot is released at once.
func (s *Store) Remove(h int32) {
	s.unlink(h)
	if !s.logged {
		s.slab.Release(h)
		return
	}
	s.log = append(s.log, undo{kind: undoDelete, h: h})
}

// Update replaces the row in slot h, which keeps its key and its handle,
// and returns the row it replaced. The hook is not called: the owner refiles
// what it keeps of the row itself.
func (s *Store) Update(h int32, row Row) Row {
	sl := s.slab.At(h)
	old := sl.Row
	sl.Row = row
	if s.logged {
		s.log = append(s.log, undo{kind: undoUpdate, h: h})
		s.olds = append(s.olds, old)
	}
	return old
}

// link makes the row in slot h visible under its key and to the owner.
func (s *Store) link(h int32) {
	s.keys.add(keyHash(s.slab.At(h).Key), h)
	if s.hook != nil {
		s.hook(h, true)
	}
}

// find probes for handle h itself under its key's hash: a linked row is
// found by its handle, comparing no key.
func (s *Store) find(h int32) (keyProbe, bool) {
	p := s.keys.probe(keyHash(s.slab.At(h).Key))
	for at, ok := s.keys.next(&p); ok; at, ok = s.keys.next(&p) {
		if at == h {
			return p, true
		}
	}
	return p, false
}

// linked reports whether the row in slot h is in sight under its key.
func (s *Store) linked(h int32) bool {
	_, ok := s.find(h)
	return ok
}

// unlink is the inverse of link: the row leaves the key index and the
// owner's structures and stays in its slot.
func (s *Store) unlink(h int32) {
	if s.hook != nil {
		s.hook(h, false)
	}
	if p, ok := s.find(h); ok {
		s.keys.del(&p)
	}
}

// Rollback returns the store to its state at the last commit by undoing the
// log in reverse, in place: an inserted row is unlinked and its slot
// released, a deleted one relinked at its handle, an updated slot given its
// old row back (unlinked and relinked, so the owner refiles it). Every row
// live at the commit is live again at the handle it had; the undone
// mutations never reach the open transaction. Before undoing a record it
// checks that the slot is in the state the record left it in, and stops
// with ErrMutatedOutside when it is not. Only the log's segment from
// record from on is undone, and dropped on every path: an owner that nests
// runs (a view's changesets) marks where each began (Pending). The records
// of a commit a panic interrupted are committed and stay; a segment that
// begins before them is not undone at all (ErrInterrupted). A store that
// keeps no log has nothing to undo.
func (s *Store) Rollback(from int) error {
	from, err := s.segment(from)
	if err != nil {
		return err
	}
	defer s.truncate(from)
	olds := len(s.olds)
	for i := len(s.log) - 1; i >= from; i-- {
		r := s.log[i]
		if r.h >= s.slab.Used() || s.slab.At(r.h).Row == nil {
			return ErrMutatedOutside
		}
		sl := s.slab.At(r.h)
		at, linked := s.Lookup(sl.Key)
		switch {
		case r.kind == undoDelete && !linked:
			s.link(r.h)
		case r.kind == undoDelete || !linked || at != r.h:
			return ErrMutatedOutside
		case r.kind == undoInsert:
			s.unlink(r.h)
			s.slab.Release(r.h)
		default:
			s.unlink(r.h)
			olds--
			sl.Row = s.olds[olds]
			s.link(r.h)
		}
	}
	return nil
}

// Commit ends the mutations logged since the last commit. Once the store is
// versioned it walks the log, under the seal mutex, into the open
// transaction — opened from the sealed epoch if none is — in log order:
// the slot of every inserted or updated row is set to the row in its slab
// slot, that of every deleted row cleared, so a row inserted and deleted
// again ends up clear. each, when non-nil, follows the walk: it gets each
// record's handle, the row set (nil for a clear), and what the slot held
// before. After the walk done, when non-nil, runs, still under the mutex,
// seq becomes the number of the open transaction and the dirty mark is set
// for the next pin to seal. Then, versioned or not, the slots of the
// deleted rows are released and the log emptied. Only the log's segment from
// record from on commits (see Rollback), and the records of a commit a
// panic interrupted with it. Callers hold whatever lock serializes the
// store's writers.
//
// The mutex is released on every path. A panic in the walk (in each or
// done, say) keeps the open transaction, with the commits walked into it
// before, less the record whose each panicked; it clears the dirty mark and
// marks the store behind, so no pin seals the interrupted walk and readers
// keep the last sealed epoch. The log and the slots stay as they were, and
// the next commit walks the interrupted records again: setting a slot to
// the row it holds, or clearing a clear one, changes nothing, and each sees
// the slot's old row as the row itself.
func (s *Store) Commit(from int, seq uint64, each func(h int32, row, old Row, had bool), done func()) {
	if s.behind {
		from = min(from, s.walkFrom)
	}
	log := s.log[from:]
	if len(log) == 0 {
		return
	}
	s.mu.Lock()
	walked, cur := false, int32(-1)
	var old Row
	var had bool
	defer func() {
		if !walked {
			if cur >= 0 && had {
				s.open.Set(cur, old)
			} else if cur >= 0 {
				s.open.Clear(cur)
			}
			s.behind, s.walkFrom, s.walkTo = true, from, len(s.log)
			s.dirty.Store(false)
		}
		s.mu.Unlock()
	}()
	if s.sealed != nil {
		if s.open == nil {
			s.open = s.sealed.Edit()
		}
		for _, r := range log {
			var row Row
			if r.kind == undoDelete {
				old, had = s.open.Clear(r.h)
			} else {
				row = s.slab.At(r.h).Row
				old, had = s.open.Set(r.h, row)
			}
			if each != nil {
				cur = r.h
				each(r.h, row, old, had)
				cur = -1
			}
		}
		if done != nil {
			done()
		}
		s.seq = seq
		s.dirty.Store(true)
	}
	walked, s.behind = true, false
	for _, r := range log {
		if r.kind == undoDelete {
			s.slab.Release(r.h)
		}
	}
	s.truncate(from)
}

// ErrInterrupted reports a log segment that begins before the records of a
// commit a panic interrupted, which are committed and cannot be undone.
var ErrInterrupted = errors.New("rel: the segment holds a commit a panic interrupted")

// segment returns where the segment from record from on begins once the
// records of an interrupted commit (see Commit), which are committed, are
// left out: after them when from is at or inside them, and ErrInterrupted
// when from is before them.
func (s *Store) segment(from int) (int, error) {
	if !s.behind || from >= s.walkTo {
		return from, nil
	}
	if from < s.walkFrom {
		return from, ErrInterrupted
	}
	return s.walkTo, nil
}

// truncate drops the log from record from on, with the old rows its
// updates hold.
func (s *Store) truncate(from int) {
	keep := len(s.olds)
	for _, r := range s.log[from:] {
		if r.kind == undoUpdate {
			keep--
		}
	}
	clear(s.olds[keep:])
	s.log, s.olds = s.log[:from], s.olds[:keep]
}

// Version switches the log on and seals a first epoch of every linked row,
// in handle order, dropping any open transaction: filling in handle order
// allocates the leaves in the order a scan reads them. A slot whose row is
// out of sight but not yet released is left out. each, when non-nil, gets
// every row it seals. Every linked row must be committed — nothing logged
// since the last commit but Fills, and deletes — and the caller holds the
// seal mutex. An owner that replaces its rows wholesale (Adopt) versions
// them again.
func (s *Store) Version(each func(h int32, row Row)) *RowVec {
	s.logged = true
	tx := new(RowVec).Edit()
	// Linked rows sit in distinct occupied slots: when there are as many of
	// them as occupied slots, no slot needs its key looked up.
	dead := int(s.slab.Used())-len(s.slab.Free()) > s.keys.Len()
	for h := int32(0); h < s.slab.Used(); h++ {
		if sl := s.slab.At(h); sl.Row != nil && (!dead || s.linked(h)) {
			tx.Set(h, sl.Row)
			if each != nil {
				each(h, sl.Row)
			}
		}
	}
	s.sealed, s.open = tx.Publish(), nil
	s.dirty.Store(false)
	return s.sealed
}

// Adopt replaces the store's rows by src's, which the caller built with the
// same key encoding, and empties the log; the seal state stays, and the
// caller versions the new rows (Version) when the store is versioned. src
// must not be used again.
func (s *Store) Adopt(src *Store) {
	s.keys, s.slab = src.keys, src.slab
	s.truncate(0)
	s.behind = false
}

// Sealed returns the last sealed epoch, nil before Version. The caller holds
// the seal mutex.
func (s *Store) Sealed() *RowVec { return s.sealed }

// Locked runs fn under the seal mutex, for an owner that seals (Seal) or
// rebuilds its epochs (Version) under it; the mutex is released on every
// path.
func (s *Store) Locked(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// Dirty reports whether a commit was walked since the last seal. A pin reads
// it before the owner's epoch: a seal stores the epoch before it clears the
// mark, so a clean store's epoch is current.
func (s *Store) Dirty() bool { return s.dirty.Load() }

// Seal publishes the open transaction, if there is one — O(1), allocating
// nothing — as the sealed epoch, hands it and the number of the last commit
// in it to publish, which stores the owner's epoch, and then clears the
// dirty mark. It returns the sealed epoch, nil before Version and while the
// open transaction holds part of a walk a panic interrupted (Commit): then
// there is nothing consistent to seal. A walk that completes marks the store
// dirty under the mutex, so an open transaction with no mark is such a
// walk's. The caller holds the seal mutex.
func (s *Store) Seal(publish func(rows *RowVec, seq uint64)) *RowVec {
	if s.open != nil && !s.dirty.Load() {
		return nil
	}
	if s.open != nil {
		s.sealed, s.open = s.open.Publish(), nil
		publish(s.sealed, s.seq)
		s.dirty.Store(false)
	}
	return s.sealed
}
