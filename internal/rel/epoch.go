package rel

import (
	"hash/maphash"
	"sync/atomic"
)

// Epoch-based copy-on-write snapshots.
//
// A mutable container read by key (a table's row map, a view's aggregation
// groups; a stored view's rows are read by scan and publish by handle, see
// view/rowvec.go) publishes an immutable EpochMap at every commit boundary.
// Readers load the current epoch through one atomic pointer and then read
// it without any lock: nothing in a published epoch is ever mutated again,
// so a reader pinned to an epoch can never observe torn state from an
// in-flight flush, no matter how long it holds on to the snapshot.
//
// An epoch is the root of a persistent hash trie (trie.go). The writer
// keeps its live Go map and the set of keys dirtied since the last
// publish; publishing resolves exactly those keys against the live map
// and path-copies them into the previous root, O(dirty · log₃₂ n) whatever
// the container's size. Everything off those paths is shared with the
// previous epoch, so a pinned reader retains only the nodes its epoch no
// longer shares with the current one. Dirty keys whose mutation was
// rolled back before the publish resolve to their unchanged live value,
// which is what lets commit-time publication coexist with the undo-logged
// changeset protocol: only committed state is ever resolved.

// EpochMap is an immutable snapshot of a map[string]V. All methods are
// read-only and safe for unsynchronized concurrent use.
type EpochMap[V any] struct {
	seq   uint64
	count int
	root  *trieNode[V]
	hash  func(string) uint64
}

// Seq returns the epoch sequence number the snapshot was published at.
func (e *EpochMap[V]) Seq() uint64 { return e.seq }

// Len returns the number of live keys in the snapshot.
func (e *EpochMap[V]) Len() int { return e.count }

// Get returns the value of k as of this epoch.
func (e *EpochMap[V]) Get(k string) (V, bool) { return e.root.get(e.hash(k), k) }

// Range calls f for every live key/value pair until f returns false.
// Iteration order is unspecified, like a map's.
func (e *EpochMap[V]) Range(f func(string, V) bool) { e.root.walk(f) }

// Values returns every live value in a fresh slice, in unspecified order.
// It reads the values straight out of the nodes, with no call per entry.
func (e *EpochMap[V]) Values() []V { return e.root.appendValues(make([]V, 0, e.count)) }

// NewFullEpoch builds an epoch from the whole live map. clone, when
// non-nil, guards values the live side mutates in place (aggregation
// groups); nil shares the values, which is correct for values that are
// replaced rather than mutated (rows).
func NewFullEpoch[V any](seq uint64, live map[string]V, clone func(V) V) *EpochMap[V] {
	seed := maphash.MakeSeed()
	return newFullEpochHashed(seq, live, clone, func(k string) uint64 { return maphash.String(seed, k) })
}

// newFullEpochHashed is NewFullEpoch with the key hash given, so tests can
// force fragment and full-hash collisions. Epochs derived from the result
// keep its hash.
func newFullEpochHashed[V any](seq uint64, live map[string]V, clone func(V) V, hash func(string) uint64) *EpochMap[V] {
	n := len(live)
	buf := make([]trieItem[V], 2*n) // the items, then buildTrie's scratch
	items := buf[:0]
	for k, v := range live {
		if clone != nil {
			v = clone(v)
		}
		items = append(items, trieItem[V]{hash(k), trieEntry[V]{k, v}})
	}
	return &EpochMap[V]{seq: seq, count: n, root: buildTrie(items, buf[n:], 0), hash: hash}
}

// PublishEpoch derives the next epoch from prev by resolving every key of
// the dirty set against the live container via lookup. The previous epoch
// is shared structurally; only the paths to the dirty keys occupy new
// memory.
func PublishEpoch[V any](prev *EpochMap[V], seq uint64, dirty map[string]struct{}, lookup func(string) (V, bool), clone func(V) V) *EpochMap[V] {
	tx := prev.edit()
	for k := range dirty {
		v, ok := lookup(k)
		if !ok {
			tx.delete(k)
			continue
		}
		if clone != nil {
			v = clone(v)
		}
		tx.set(k, v)
	}
	return tx.publish(seq)
}

// edit opens a transaction over e's root; e itself never changes.
func (e *EpochMap[V]) edit() *trieTx[V] {
	return &trieTx[V]{owner: new(trieOwner), hash: e.hash, root: e.root, count: e.count}
}

// publish ends the transaction: its root becomes the epoch seq, and with
// the owner token dropped no node under it is ever written again.
func (t *trieTx[V]) publish(seq uint64) *EpochMap[V] {
	return &EpochMap[V]{seq: seq, count: t.count, root: t.root, hash: t.hash}
}

// TableSnapshot is the published epoch of one base table's rows, immutable
// and readable without locks. Secondary indexes are not published: they
// serve the writer's joins and constraint checks only.
type TableSnapshot struct {
	name   string
	schema Schema
	rows   *EpochMap[Row]
}

// Name returns the table name.
func (s *TableSnapshot) Name() string { return s.name }

// Schema returns the table schema. Callers must not modify it.
func (s *TableSnapshot) Schema() Schema { return s.schema }

// Epoch returns the sequence number the snapshot was published at.
func (s *TableSnapshot) Epoch() uint64 { return s.rows.seq }

// Len returns the number of rows as of the epoch.
func (s *TableSnapshot) Len() int { return s.rows.count }

// Rows returns all rows as of the epoch, in unspecified order. The slice
// is fresh (callers may sort it in place); the rows are shared and must
// not be modified.
func (s *TableSnapshot) Rows() []Row {
	return s.rows.Values()
}

// Get returns the row with the given key values as of the epoch.
func (s *TableSnapshot) Get(keyVals ...Value) (Row, bool) {
	return s.rows.Get(EncodeValues(keyVals...))
}

// GetEncoded returns the row with the given pre-encoded key as of the
// epoch.
func (s *TableSnapshot) GetEncoded(encodedKey string) (Row, bool) {
	return s.rows.Get(encodedKey)
}

// markDirty records a mutated row key for the next publish; a no-op until
// epochs are enabled by the first PublishEpochs.
func (t *Table) markDirty(k string) {
	if t.dirty != nil {
		t.dirty[k] = struct{}{}
	}
}

// Snapshot returns the table's current published epoch, or nil when the
// owning catalog has never published (bare-catalog users pay nothing for
// the epoch machinery).
func (t *Table) Snapshot() *TableSnapshot {
	return t.epoch.Load()
}

// publishEpoch publishes the table's rows at seq. The first call switches
// dirty tracking on and builds the trie from the whole table; later calls
// are O(keys touched since the previous publish). Callers must hold
// whatever lock serializes table writers.
func (t *Table) publishEpoch(seq uint64) {
	prev := t.epoch.Load()
	var rows *EpochMap[Row]
	switch {
	case prev == nil:
		t.dirty = make(map[string]struct{})
		rows = NewFullEpoch(seq, t.rows, nil)
	case len(t.dirty) == 0:
		return // nothing changed since the previous publish
	default:
		rows = PublishEpoch(prev.rows, seq, t.dirty, func(k string) (Row, bool) {
			r, ok := t.rows[k]
			return r, ok
		}, nil)
		clear(t.dirty)
	}
	t.epoch.Store(&TableSnapshot{name: t.name, schema: t.schema, rows: rows})
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
// The first call enables dirty tracking; catalogs that never publish pay
// only a nil check per mutation.
func (c *Catalog) PublishEpochs() {
	// Publishing rewires per-table bookkeeping (dirty tracking), so it
	// counts as a committed mutation like every other exported catalog
	// write. Harmless to the flush fast path: the facade publishes at
	// commit boundaries, after which the pipeline queue has been reset and
	// re-snapshots the version at its next staged statement.
	c.version.Add(1)
	seq := c.epochs.seq.Add(1)
	for _, name := range c.names {
		c.tables[name].publishEpoch(seq)
	}
	c.publishDir()
}

// PublishTableEpochs publishes a new epoch of exactly the named tables. It
// is the per-component commit boundary of a concurrent WriteBatch flush:
// each independent component publishes its own base tables when it commits,
// without waiting for (or disturbing) the other components. Callers must
// hold the shard locks serializing writers of the named tables, and the
// tables must already have epochs enabled (the facade publishes the whole
// catalog when it adopts one). The table directory is not refreshed: a
// flush never runs DDL, so the name→table mapping cannot have changed.
func (c *Catalog) PublishTableEpochs(names []string) {
	if len(names) == 0 {
		return
	}
	c.version.Add(1)
	seq := c.epochs.seq.Add(1)
	for _, name := range names {
		if t := c.tables[name]; t != nil {
			t.publishEpoch(seq)
		}
	}
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
