package rel

import (
	"fmt"
	"slices"
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

// Index is a secondary hash index over a column set of one table.
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
	m    map[string][]Row
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

// Lookup returns the rows whose indexed columns encode to the given key.
// The returned slice must not be modified.
func (ix *Index) Lookup(key string) []Row { return ix.m[key] }

// LookupBytes is Lookup for a key held in a reusable byte buffer; the
// string conversion happens inside the map index expression, which the
// compiler performs without allocating.
func (ix *Index) LookupBytes(key []byte) []Row { return ix.m[string(key)] }

// Cols returns the indexed column offsets.
func (ix *Index) Cols() []int { return ix.cols }

func (ix *Index) add(row Row) {
	k := EncodeRowCols(row, ix.cols)
	ix.m[k] = append(ix.m[k], row)
}

// slot returns the bucket holding row and row's position in it. A bucket
// holds the very slices stored in Table.rows, so the match is by identity
// and reads no row memory.
func (ix *Index) slot(row Row) (key string, bucket []Row, pos int) {
	key = EncodeRowCols(row, ix.cols)
	bucket = ix.m[key]
	for i, r := range bucket {
		if &r[0] == &row[0] {
			return key, bucket, i
		}
	}
	return key, bucket, -1
}

func (ix *Index) remove(row Row) {
	k, bucket, i := ix.slot(row)
	if i < 0 {
		return
	}
	last := len(bucket) - 1
	bucket[i] = bucket[last]
	bucket[last] = nil
	if last == 0 {
		delete(ix.m, k)
	} else {
		ix.m[k] = bucket[:last]
	}
}

// replace swaps old for row. When the indexed columns are unchanged
// (identical values, a stricter test than equal encodings) the row takes
// old's slot in its bucket.
func (ix *Index) replace(old, row Row) {
	for _, c := range ix.cols {
		if !old[c].identical(row[c]) {
			ix.remove(old)
			ix.add(row)
			return
		}
	}
	if _, bucket, i := ix.slot(old); i >= 0 {
		bucket[i] = row
	}
}

// Table is an in-memory base table with a unique non-null key (the paper's
// standing assumption) and any number of secondary hash indexes.
type Table struct {
	name    string
	schema  Schema
	keyCols []int
	rows    map[string]Row
	indexes []*Index
	fks     []ForeignKey
	// dirty tracks row keys touched since the last epoch publish; nil until
	// the owning catalog first publishes. epoch is the current published
	// snapshot, readable without locks (see epoch.go).
	dirty map[string]struct{}
	epoch atomic.Pointer[TableSnapshot]
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
	for _, r := range t.rows {
		out = append(out, r)
	}
	return out
}

// Get returns the row with the given key values, if present.
func (t *Table) Get(keyVals ...Value) (Row, bool) {
	r, ok := t.rows[EncodeValues(keyVals...)]
	return r, ok
}

// GetEncoded returns the row with the given pre-encoded key, if present.
func (t *Table) GetEncoded(encodedKey string) (Row, bool) {
	r, ok := t.rows[encodedKey]
	return r, ok
}

// GetEncodedBytes is GetEncoded for a key held in a reusable byte buffer;
// the in-place string conversion avoids allocating a key per probe.
func (t *Table) GetEncodedBytes(encodedKey []byte) (Row, bool) {
	r, ok := t.rows[string(encodedKey)]
	return r, ok
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

// insertPrevalidated stores a row whose constraints and encoded key k the
// catalog has already established (see rel/prevalidated.go). The row is
// cloned, as in insert, so callers keep ownership of their slices.
func (t *Table) insertPrevalidated(row Row, k string) {
	row = row.Clone()
	t.rows[k] = row
	t.markDirty(k)
	for _, ix := range t.indexes {
		ix.add(row)
	}
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
// (CreateIndex, AddForeignKey, Arrange, Release) that moves Catalog.version
// and keeps the Prevalidated() flush fast path honest.
func (t *Table) buildIndex(name string, offsets []int, pinned bool) *Index {
	ix := &Index{name: name, cols: offsets, m: make(map[string][]Row), pinned: pinned}
	for _, r := range t.rows {
		ix.add(r)
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

func (t *Table) insert(row Row) error {
	if err := t.validateRow(row); err != nil {
		return err
	}
	k := t.KeyOf(row)
	if _, dup := t.rows[k]; dup {
		return fmt.Errorf("rel: table %s: duplicate key %v", t.name, row.Project(t.keyCols))
	}
	// Store a private copy: callers remain free to reuse or mutate their
	// row slices after Insert returns.
	row = row.Clone()
	t.rows[k] = row
	t.markDirty(k)
	for _, ix := range t.indexes {
		ix.add(row)
	}
	return nil
}

func (t *Table) deleteByKey(k string) (Row, bool) {
	row, ok := t.rows[k]
	if !ok {
		return nil, false
	}
	delete(t.rows, k)
	t.markDirty(k)
	for _, ix := range t.indexes {
		ix.remove(row)
	}
	return row, true
}

// replaceByKey stores a private copy of row under k, which must hold a row
// with the same key, and returns the row it replaced.
func (t *Table) replaceByKey(k string, row Row) Row {
	old := t.rows[k]
	row = row.Clone()
	t.rows[k] = row
	t.markDirty(k)
	for _, ix := range t.indexes {
		ix.replace(old, row)
	}
	return old
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
