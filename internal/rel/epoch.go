package rel

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"
)

// Epoch-based copy-on-write snapshots, sealed when read.
//
// A mutable container derives its next epoch from the previous one at every
// commit, and publishes (seals) it when a reader pins the container. Readers
// load the current epoch through one atomic pointer and then read it without
// any lock: nothing in a sealed epoch is ever mutated again, so a reader
// pinned to an epoch can never observe torn state from an in-flight flush,
// no matter how long it holds on to the snapshot. Everything unchanged is
// shared with the previous epoch, so a pinned reader retains only what its
// epoch no longer shares with the current one.
//
// Every container — a base table here; a view family, whose rows are a
// stored view's or an aggregation view's groups, in internal/view — keeps
// its rows in one Store (store.go): a slab (slab.go) under a key map, an
// undo log, and its epochs as RowVecs (rowvec.go) indexed by slab handle.
// The Store logs the handles a commit touched. The commit walks its log
// into the container's open VecTx, which stays open across commits: it
// sets or clears exactly those vector slots from the committed slots, then
// releases the slots of the rows the commit deleted. The invariant is
// open[h] == the row committed in slot h, for every h: an undone mutation
// leaves every live row at its handle, and a deleted row's slot is not
// reused before its delete reaches the open transaction.
//
// This file holds what is the table's: its sealed epoch (TableSnapshot) and
// how a pin stores it, and the catalog's commit boundaries, which number the
// commits. The walk, the seal, the dirty mark and the seal mutex are the
// Store's, shared with view families; a family adds per-member epochs
// (view/epoch.go).
//
// A pin seals. The walk marks the container dirty; a pin that sees the mark
// takes the container's seal mutex — held otherwise only by the walk, never
// across a flush's maintenance — publishes the open transaction (O(1): it
// drops the owner token) and stores the result as the current epoch. A
// vector node is therefore copied once per pin that follows a write to it,
// not once per commit: k commits with no pin between them copy each node
// they touch once. A pin with nothing committed since the last seal is two
// atomic loads, the mark and the epoch, and takes no lock. A sealed epoch
// carries the sequence number of the last commit it contains, so equal
// numbers mean equal rows. Nothing is written by key: a keyed snapshot read
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

// Epoch returns the sequence number of the last commit the snapshot
// contains: two snapshots of one table with equal numbers hold equal rows.
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

// Snapshot returns the table's current epoch, sealing the commits walked
// since the last seal, or nil when the owning catalog has never published
// (bare-catalog users pay nothing for the epoch machinery).
func (t *Table) Snapshot() *TableSnapshot {
	if t.rows.Dirty() {
		// A pin that finds another pin sealed first changes nothing.
		t.rows.Locked(func() { t.rows.Seal(t.storeEpoch) })
	}
	return t.epoch.Load()
}

// storeEpoch stores rows, as of commit seq, as the table's epoch.
func (t *Table) storeEpoch(rows *RowVec, seq uint64) {
	t.epoch.Store(&TableSnapshot{name: t.name, schema: t.schema, keyCols: t.keyCols, seq: seq, rows: rows})
}

// publishEpoch commits the table's log at seq (Store.Commit), for the next
// pin to seal. The first call switches the log on and publishes a first
// epoch of the whole slab: with no log yet, every occupied slot is live.
// Callers must hold whatever lock serializes table writers.
func (t *Table) publishEpoch(seq uint64) {
	if t.rows.logged {
		t.rows.Commit(0, seq, nil, nil)
		return
	}
	t.rows.Locked(func() { t.storeEpoch(t.rows.Version(nil), seq) })
}

// rollback returns the table to its state at the last commit
// (Store.Rollback); the store's link hook refiles the indexes.
func (t *Table) rollback() error {
	if !t.rows.logged {
		return fmt.Errorf("rel: table %s: no undo log: the catalog has never published", t.name)
	}
	if err := t.rows.Rollback(0); err != nil {
		return fmt.Errorf("rel: table %s: rollback: %w", t.name, err)
	}
	return nil
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

// PublishEpochs commits every table's log into its open epoch, for the next
// pin to seal (see Table.Snapshot); the first call publishes a first epoch
// of every table. The Database facade calls it under its write lock at every
// commit boundary — after a successful statement, flush, or DDL change — and
// never mid-flush, so epochs only ever contain committed state.
// The first call switches the tables' logs on; catalogs that never publish
// pay only a flag test per mutation.
func (c *Catalog) PublishEpochs() {
	c.PublishTableEpochs(c.names)
	c.publishDir()
}

// PublishTableEpochs commits the logs of exactly the named tables into their
// open epochs. It is the per-component commit boundary of a concurrent
// WriteBatch flush: each independent component commits its own base tables,
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

// Rollback returns each named table to its state at its last commit,
// undoing every mutation since in place (see Table.rollback). It is the
// unwind of a failed component of a flush: the caller holds the database's
// write lock and is the only writer of the named tables, and each of them
// was committed when the component began.
// Constraint checks are skipped — the committed state satisfied every
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

// Snapshot returns the current epoch of the named table (Table.Snapshot),
// or nil when the table does not exist or the catalog has never published.
// It is safe to call without holding any lock, and waits at most for one
// table's log walk, never for a flush.
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
