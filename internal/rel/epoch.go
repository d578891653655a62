package rel

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"
)

// Epoch-based copy-on-write snapshots.
//
// A mutable container publishes an immutable epoch at every commit
// boundary. Readers load the current epoch through one atomic pointer and
// then read it without any lock: nothing in a published epoch is ever
// mutated again, so a reader pinned to an epoch can never observe torn state
// from an in-flight flush, no matter how long it holds on to the snapshot.
// Publishing costs what changed since the previous epoch, whatever the
// container's size, and everything unchanged is shared with the previous
// epoch, so a pinned reader retains only what its epoch no longer shares
// with the current one.
//
// Every container — a base table here; a stored view and an aggregation
// view, whose groups are rows too, in internal/view — keeps its rows in a
// slab (slab.go) and publishes a RowVec (rowvec.go) indexed by slab handle.
// Each container logs the handles a commit touched; publishing sets or
// clears exactly those vector slots from the committed slots, then releases
// the slots of the rows the commit deleted. The invariant is epoch[h] == the
// row committed in slot h, for every h: an undone mutation leaves every live
// row at its handle, and a deleted row's slot is not reused before its delete
// publishes. Nothing is written by key: a keyed snapshot read
// (TableSnapshot.Get) indexes the epoch once, on its first keyed read.

// TableSnapshot is the published epoch of one base table's rows, immutable
// and readable without locks. Secondary indexes are not published: they
// serve the writer's joins and constraint checks only.
type TableSnapshot struct {
	name    string
	schema  Schema
	keyCols []int
	seq     uint64
	rows    *RowVec
	// byKey indexes the rows by encoded key; see GetEncoded.
	byKeyOnce sync.Once
	byKey     map[string]Row
}

// Name returns the table name.
func (s *TableSnapshot) Name() string { return s.name }

// Schema returns the table schema. Callers must not modify it.
func (s *TableSnapshot) Schema() Schema { return s.schema }

// Epoch returns the sequence number the snapshot was published at.
func (s *TableSnapshot) Epoch() uint64 { return s.seq }

// Len returns the number of rows as of the epoch.
func (s *TableSnapshot) Len() int { return s.rows.Len() }

// Rows returns all rows as of the epoch, in unspecified order. The slice
// is fresh (callers may sort it in place); the rows are shared and must
// not be modified.
func (s *TableSnapshot) Rows() []Row {
	return s.rows.Append(make([]Row, 0, s.rows.Len()))
}

// Get returns the row with the given key values as of the epoch.
func (s *TableSnapshot) Get(keyVals ...Value) (Row, bool) {
	return s.GetEncoded(EncodeValues(keyVals...))
}

// GetEncoded returns the row with the given pre-encoded key as of the
// epoch. The write path keeps no key structure for snapshots, so the first
// keyed read of an epoch indexes it: one key encoding and one map insert
// per row, O(n) once, and a map of n entries held for as long as the
// snapshot is. Every later keyed read of the epoch is one map lookup.
func (s *TableSnapshot) GetEncoded(encodedKey string) (Row, bool) {
	s.byKeyOnce.Do(func() {
		s.byKey = make(map[string]Row, s.rows.Len())
		for _, r := range s.Rows() {
			s.byKey[EncodeRowCols(r, s.keyCols)] = r
		}
	})
	r, ok := s.byKey[encodedKey]
	return r, ok
}

type undoKind uint8

const (
	undoInsert undoKind = iota
	undoDelete
	undoUpdate
)

// rowUndo is one logged row mutation: the handle it touched and, for an
// update, the row it replaced.
type rowUndo struct {
	kind undoKind
	h    int32
	old  Row
}

// logRow records a mutation for the next publish or rollback; a no-op until
// the owning catalog first publishes.
func (t *Table) logRow(kind undoKind, h int32, old Row) {
	if t.logged {
		t.log = append(t.log, rowUndo{kind: kind, h: h, old: old})
	}
}

// Snapshot returns the table's current published epoch, or nil when the
// owning catalog has never published (bare-catalog users pay nothing for
// the epoch machinery).
func (t *Table) Snapshot() *TableSnapshot {
	return t.epoch.Load()
}

// publishEpoch publishes the table's rows at seq. The first call switches
// the log on and fills the vector from the whole slab, in handle order: with
// no log yet, every occupied slot is live. Later calls set or clear the
// slots the log names, in log order — a row inserted and deleted again
// ends up clear — releasing the slot of each deleted row as they go. Callers
// must hold whatever lock serializes table writers.
func (t *Table) publishEpoch(seq uint64) {
	var tx *VecTx[Row]
	switch prev := t.epoch.Load(); {
	case prev == nil:
		t.logged = true
		tx = new(RowVec).Edit()
		for h := int32(0); h < t.slab.Used(); h++ {
			if r := t.slab.At(h).Row; r != nil {
				tx.Set(h, r)
			}
		}
	case len(t.log) == 0:
		return // nothing changed since the previous publish
	default:
		tx = prev.rows.Edit()
		for _, r := range t.log {
			if r.kind != undoDelete {
				tx.Set(r.h, t.slab.At(r.h).Row)
				continue
			}
			tx.Clear(r.h)
			t.slab.Release(r.h) // no later record names a deleted row's handle
		}
		t.clearLog()
	}
	t.epoch.Store(&TableSnapshot{name: t.name, schema: t.schema, keyCols: t.keyCols, seq: seq, rows: tx.Publish()})
}

// rollback returns the table to its last published epoch by undoing the log
// in reverse, in place: an insert's slot is unlinked and freed, a deleted
// row is relinked at its handle, an updated slot gets its old row back.
// Every row live at the publish is live again at the handle it had.
func (t *Table) rollback() error {
	if !t.logged {
		return fmt.Errorf("rel: table %s: no undo log: the catalog has never published", t.name)
	}
	for i := len(t.log) - 1; i >= 0; i-- {
		switch r := t.log[i]; r.kind {
		case undoInsert:
			t.unlink(r.h)
			t.slab.Release(r.h)
		case undoDelete:
			t.link(r.h)
		default:
			s := t.slab.At(r.h)
			for _, ix := range t.indexes {
				ix.replace(s.Row, r.old, r.h)
			}
			s.Row = r.old
		}
	}
	t.clearLog()
	return nil
}

// clearLog empties the log, dropping the old rows it held.
func (t *Table) clearLog() {
	clear(t.log)
	t.log = t.log[:0]
}

// epochSeq is the catalog's publish counter; tableDir is the lock-free
// name→table directory snapshot readers resolve tables through (the
// tables map itself may be mid-mutation by concurrent DDL). Both live
// here rather than in Catalog's literal declaration to keep the epoch
// machinery in one file. The counter is atomic because independent flush
// components publish their tables concurrently (PublishTableEpochs), each
// drawing its own sequence number.
type catalogEpochs struct {
	seq atomic.Uint64
	dir atomic.Pointer[map[string]*Table]
}

// PublishEpochs publishes a new epoch of every table.
// The Database facade calls it under its write lock at every commit
// boundary — after a successful statement, flush, or DDL change — and
// never mid-flush, so published epochs only ever contain committed state.
// The first call switches the tables' logs on; catalogs that never publish
// pay only a flag test per mutation.
func (c *Catalog) PublishEpochs() {
	seq := c.epochs.seq.Add(1)
	for _, name := range c.names {
		c.tables[name].publishEpoch(seq)
	}
	c.publishDir()
}

// PublishTableEpochs publishes a new epoch of exactly the named tables. It
// is the per-component commit boundary of a concurrent WriteBatch flush:
// each independent component publishes its own base tables when it commits,
// without waiting for (or disturbing) the other components. The caller
// holds the database's write lock and is the only writer of the named
// tables, and the tables must already have epochs enabled (the facade
// publishes the whole catalog when it adopts one). The table directory is not refreshed: a
// flush never runs DDL, so the name→table mapping cannot have changed.
func (c *Catalog) PublishTableEpochs(names []string) {
	if len(names) == 0 {
		return
	}
	seq := c.epochs.seq.Add(1)
	for _, name := range names {
		if t := c.tables[name]; t != nil {
			t.publishEpoch(seq)
		}
	}
}

// Rollback returns each named table to its last published epoch, undoing
// every mutation since in place (see Table.rollback). It is the unwind of a
// failed component of a flush: the caller holds the database's write lock
// and is the only writer of the named tables, and each of them was
// published when the component began.
// Constraint checks are skipped — the published state satisfied every
// constraint. It rolls back every table it can and reports the first
// failure: an unknown table, or a catalog that never published and so kept
// no log.
func (c *Catalog) Rollback(names []string) error {
	var err error
	for _, name := range names {
		t := c.tables[name]
		if t == nil {
			err = cmp.Or(err, fmt.Errorf("rel: unknown table %s", name))
			continue
		}
		err = cmp.Or(err, t.rollback())
	}
	return err
}

// publishDir refreshes the lock-free table directory.
func (c *Catalog) publishDir() {
	dir := make(map[string]*Table, len(c.tables))
	for n, t := range c.tables {
		dir[n] = t
	}
	c.epochs.dir.Store(&dir)
}

// Snapshot returns the published epoch of the named table, or nil when the
// table does not exist or the catalog has never published. It is safe to
// call without holding any lock.
func (c *Catalog) Snapshot(name string) *TableSnapshot {
	dirp := c.epochs.dir.Load()
	if dirp == nil {
		return nil
	}
	t := (*dirp)[name]
	if t == nil {
		return nil
	}
	return t.Snapshot()
}
