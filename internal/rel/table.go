package rel

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// ForeignKey declares that Cols of the owning table reference RefCols (a
// unique key) of RefTable. The maintenance planner exploits declared foreign
// keys (paper Section 6); the catalog also enforces them on insert and
// delete so that exploiting them is sound.
type ForeignKey struct {
	Cols     []string
	RefTable string
	RefCols  []string
	// keySrc is resolved once by AddForeignKey; see KeySource.
	keySrc []int
}

// KeySource returns, for each key column of RefTable in key order, the
// offset in the owning table of the column referencing it: projecting a
// row onto KeySource yields the referenced row's key. Callers must not
// modify it.
func (fk ForeignKey) KeySource() []int { return fk.keySrc }

// Index is a secondary hash index over a column set of one table. A bucket
// holds the slab handles (slab.go) of the rows with its key; Table.Row
// resolves them.
//
// Ownership decides its lifetime. A pinned index was declared — by
// CreateIndex, or by AddForeignKey as the constraint's RESTRICT-validation
// index — and lives as long as its table. An unpinned index is an
// arrangement: derived state the catalog built because a registered view's
// maintenance probes that column set (Catalog.Arrange), shared by every
// view that does, and dropped when the last of them releases it. Ownership
// only grows: declaring an index, or a foreign key, over an arranged column
// set pins the arrangement instead of building a twin.
type Index struct {
	name string
	cols []int
	m    map[string][]int32
	// holders counts the Arrange calls not yet matched by a Release.
	holders int
	pinned  bool
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Pinned reports whether the index was declared (CreateIndex, AddForeignKey)
// rather than derived: a pinned index survives every Release and is part of
// a Save.
func (ix *Index) Pinned() bool { return ix.pinned }

// Lookup returns the handles of the rows whose indexed columns encode to the
// given key. The returned slice must not be modified.
func (ix *Index) Lookup(key string) []int32 { return ix.m[key] }

// LookupBytes is Lookup for a key held in a reusable byte buffer; the
// string conversion happens inside the map index expression, which the
// compiler performs without allocating.
func (ix *Index) LookupBytes(key []byte) []int32 { return ix.m[string(key)] }

// Cols returns the indexed column offsets.
func (ix *Index) Cols() []int { return ix.cols }

// add files row, stored at handle h, under its key.
func (ix *Index) add(row Row, h int32) {
	k := EncodeRowCols(row, ix.cols)
	ix.m[k] = append(ix.m[k], h)
}

// remove takes handle h, storing row, out of its bucket.
func (ix *Index) remove(row Row, h int32) {
	k := EncodeRowCols(row, ix.cols)
	bucket := ix.m[k]
	i := slices.Index(bucket, h)
	if i < 0 {
		return
	}
	last := len(bucket) - 1
	bucket[i] = bucket[last]
	if last == 0 {
		delete(ix.m, k)
	} else {
		ix.m[k] = bucket[:last]
	}
}

// replace refiles handle h, whose row changes from old to row. When the
// indexed columns are unchanged (identical values, a stricter test than
// equal encodings) the bucket is left alone: it holds the handle, not the
// row.
func (ix *Index) replace(old, row Row, h int32) {
	for _, c := range ix.cols {
		if !old[c].identical(row[c]) {
			ix.remove(old, h)
			ix.add(row, h)
			return
		}
	}
}

// Table is an in-memory base table with a unique non-null key (the paper's
// standing assumption) and any number of secondary hash indexes. A row lives
// in a slot of the table's slab; rows maps its encoded key to its handle.
type Table struct {
	name    string
	schema  Schema
	keyCols []int
	rows    map[string]int32
	slab    Slab
	indexes []*Index
	fks     []ForeignKey
	// log lists the row mutations since the last commit, and logged is
	// false until the owning catalog first publishes: an unlogged table
	// releases a deleted row's slot at once. epoch is the current sealed
	// snapshot, readable without locks. open is the transaction the commits
	// since the last seal walked their logs into (nil: none), openSeq the
	// last of those commits, and dirty is set while open is; sealMu guards
	// open and openSeq, and is held by a commit's log walk and a pin's seal
	// only. See epoch.go.
	log     []rowUndo
	logged  bool
	epoch   atomic.Pointer[TableSnapshot]
	sealMu  sync.Mutex
	open    *VecTx[Row]
	openSeq uint64
	dirty   atomic.Bool
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema. Callers must not modify it.
func (t *Table) Schema() Schema { return t.schema }

// KeyCols returns the offsets of the unique key columns.
func (t *Table) KeyCols() []int { return t.keyCols }

// ForeignKeys returns the declared outbound foreign keys.
func (t *Table) ForeignKeys() []ForeignKey { return t.fks }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Rows returns all rows in unspecified order. The result is a fresh slice;
// the rows themselves are shared and must not be modified.
func (t *Table) Rows() []Row {
	out := make([]Row, 0, len(t.rows))
	for _, h := range t.rows {
		out = append(out, t.slab.At(h).Row)
	}
	return out
}

// Row returns the row at handle h, as an Index bucket names it.
func (t *Table) Row(h int32) Row { return t.slab.At(h).Row }

// Get returns the row with the given key values, if present.
func (t *Table) Get(keyVals ...Value) (Row, bool) {
	return t.GetEncoded(EncodeValues(keyVals...))
}

// GetEncoded returns the row with the given pre-encoded key, if present.
func (t *Table) GetEncoded(encodedKey string) (Row, bool) {
	h, ok := t.rows[encodedKey]
	if !ok {
		return nil, false
	}
	return t.slab.At(h).Row, true
}

// GetEncodedBytes is GetEncoded for a key held in a reusable byte buffer;
// the in-place string conversion avoids allocating a key per probe.
func (t *Table) GetEncodedBytes(encodedKey []byte) (Row, bool) {
	h, ok := t.rows[string(encodedKey)]
	if !ok {
		return nil, false
	}
	return t.slab.At(h).Row, true
}

// ContainsKey reports whether a row with the encoded key exists.
func (t *Table) ContainsKey(encodedKey string) bool {
	_, ok := t.rows[encodedKey]
	return ok
}

// ContainsKeyBytes is ContainsKey for a key held in a reusable byte
// buffer; the in-place string conversion avoids allocating a key per probe.
func (t *Table) ContainsKeyBytes(encodedKey []byte) bool {
	_, ok := t.rows[string(encodedKey)]
	return ok
}

// insert stores a row whose constraints and encoded key k the catalog has
// already established. The row is cloned, so callers remain free to reuse
// or mutate their row slices once the insert returns.
func (t *Table) insert(row Row, k string) {
	h := t.slab.Alloc()
	*t.slab.At(h) = Slot{Key: k, Row: row.Clone()}
	t.link(h)
	t.logRow(undoInsert, h, nil)
}

// KeyOf returns the encoded unique key of a row of this table.
func (t *Table) KeyOf(row Row) string { return EncodeRowCols(row, t.keyCols) }

// IndexOn returns an index whose column set equals cols (order-sensitive),
// or nil. The unique key is always available through KeyIndex semantics via
// Get; IndexOn only searches secondary indexes.
func (t *Table) IndexOn(cols []int) *Index {
	for _, ix := range t.indexes {
		if equalInts(ix.cols, cols) {
			return ix
		}
	}
	return nil
}

// IndexOnSet returns the first index whose column set equals cols as a set,
// or nil when no such index exists.
func (t *Table) IndexOnSet(cols []int) *Index {
	for _, ix := range t.indexes {
		if SameIntSet(ix.cols, cols) {
			return ix
		}
	}
	return nil
}

// Indexes returns the table's secondary indexes, declared and arranged, in
// creation order. The result is a fresh slice.
func (t *Table) Indexes() []*Index { return slices.Clone(t.indexes) }

// columnOffsets resolves column names of this table to offsets.
func (t *Table) columnOffsets(cols []string) ([]int, error) {
	offsets := make([]int, len(cols))
	for i, c := range cols {
		p := t.schema.IndexOf(t.name, c)
		if p < 0 {
			return nil, fmt.Errorf("rel: table %s: index column %s does not exist", t.name, c)
		}
		offsets[i] = p
	}
	return offsets, nil
}

// buildIndex builds a secondary hash index over the given column offsets.
// Like dropIndex it is unexported on purpose: the set of
// indexes is committed catalog state, so the only way in is a Catalog method
// (CreateIndex, AddForeignKey, Arrange, Release) that moves the design
// generation, which compiled programs are checked against.
func (t *Table) buildIndex(name string, offsets []int, pinned bool) *Index {
	ix := &Index{name: name, cols: offsets, m: make(map[string][]int32), pinned: pinned}
	for _, h := range t.rows {
		ix.add(t.slab.At(h).Row, h)
	}
	t.indexes = append(t.indexes, ix)
	return ix
}

// dropIndex removes an index from the table, so base apply stops
// maintaining it.
func (t *Table) dropIndex(ix *Index) {
	if i := slices.Index(t.indexes, ix); i >= 0 {
		t.indexes = slices.Delete(t.indexes, i, i+1)
	}
}

// ValidateRow checks a row against the table schema (arity, NOT NULL,
// value kinds) without inserting it. The write pipeline uses it to reject
// malformed rows at enqueue time, before they reach a flush.
func (t *Table) ValidateRow(row Row) error { return t.validateRow(row) }

func (t *Table) validateRow(row Row) error {
	if len(row) != len(t.schema) {
		return fmt.Errorf("rel: table %s: row has %d values, schema has %d columns", t.name, len(row), len(t.schema))
	}
	for i, c := range t.schema {
		v := row[i]
		if v.IsNull() {
			if c.NotNull {
				return fmt.Errorf("rel: table %s: NULL in NOT NULL column %s", t.name, c.Name)
			}
			continue
		}
		if v.Kind() != c.Kind && !(numericKind(v.Kind()) && numericKind(c.Kind)) {
			return fmt.Errorf("rel: table %s: column %s: expected %s, got %s", t.name, c.Name, c.Kind, v.Kind())
		}
	}
	return nil
}

func (t *Table) deleteByKey(k string) (Row, bool) {
	h, ok := t.rows[k]
	if !ok {
		return nil, false
	}
	row := t.slab.At(h).Row
	t.unlink(h)
	if t.logged {
		t.logRow(undoDelete, h, nil)
	} else {
		t.slab.Release(h)
	}
	return row, true
}

// replaceByKey stores a private copy of row under k, which must hold a row
// with the same key, and returns the row it replaced. The row keeps its
// handle: an index whose columns row leaves unchanged is not touched.
func (t *Table) replaceByKey(k string, row Row) Row {
	h := t.rows[k]
	s := t.slab.At(h)
	old := s.Row
	row = row.Clone()
	for _, ix := range t.indexes {
		ix.replace(old, row, h)
	}
	s.Row = row
	t.logRow(undoUpdate, h, old)
	return old
}

// link makes the row in slot h visible: under its key and in every index.
// The slot must hold a row whose key is not in rows.
func (t *Table) link(h int32) {
	s := t.slab.At(h)
	t.rows[s.Key] = h
	for _, ix := range t.indexes {
		ix.add(s.Row, h)
	}
}

// unlink is the inverse of link: the row leaves rows and the indexes and
// stays in its slot.
func (t *Table) unlink(h int32) {
	s := t.slab.At(h)
	delete(t.rows, s.Key)
	for _, ix := range t.indexes {
		ix.remove(s.Row, h)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SameIntSet reports whether a and b hold the same integers, in any order
// (column offsets compared as sets).
func SameIntSet(a, b []int) bool {
	return len(a) == len(b) && subsetInts(a, b) && subsetInts(b, a)
}

func subsetInts(a, b []int) bool {
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}
