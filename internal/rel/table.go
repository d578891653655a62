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

// Index is a secondary hash index over a column set of one table: the slab
// handles (slab.go) of the rows, filed under their encoded index key in
// Chains (chains.go); Table.Row resolves them. A probe matches a bucket by
// reading its head row's indexed columns against the key.
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
	name   string
	cols   []int
	rows   *Store
	chains Chains[[]byte]
	// key is the scratch file encodes a row's index key into.
	key []byte
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

// Get returns the bucket of the rows whose indexed columns encode to key,
// held in a reusable byte buffer: its first handle, and how many it holds.
func (ix *Index) Get(key []byte) Chain {
	return ix.chains.Get(key, func(head int32) bool { return ix.filed(head, key) })
}

// filed reports whether the row at handle h is filed under key: whether its
// indexed columns encode to key.
func (ix *Index) filed(h int32, key []byte) bool { return encodesTo(key, ix.rows.At(h).Row, ix.cols) }

// Next returns the handle after h in h's bucket, NoHandle after the last.
func (ix *Index) Next(h int32) int32 { return ix.chains.Next(h) }

// Cols returns the indexed column offsets.
func (ix *Index) Cols() []int { return ix.cols }

// file files row, stored at handle h, under its key (add) or takes it out
// of its bucket (!add).
func (ix *Index) file(row Row, h int32, add bool) {
	ix.key = AppendRowCols(ix.key[:0], row, ix.cols)
	match := func(head int32) bool { return ix.filed(head, ix.key) }
	if add {
		ix.chains.Add(ix.key, h, match)
	} else {
		ix.chains.Delete(ix.key, h, match)
	}
}

// replace refiles handle h, whose row changes from old to row. When the
// indexed columns are unchanged (identical values, a stricter test than
// equal encodings) the bucket is left alone: it holds the handle, not the
// row.
func (ix *Index) replace(old, row Row, h int32) {
	for _, c := range ix.cols {
		if !old[c].identical(row[c]) {
			ix.file(old, h, false)
			ix.file(row, h, true)
			return
		}
	}
}

// Table is an in-memory base table with a unique non-null key (the paper's
// standing assumption) and any number of secondary hash indexes. Its rows
// live in a Store (store.go) under their encoded keys: the slab, the log,
// rollback, the commit walk and the seal are the store's; the indexes, the
// in-place update and the constraints are the table's.
type Table struct {
	name    string
	schema  Schema
	keyCols []int
	rows    Store
	indexes []*Index
	fks     []ForeignKey
	// epoch is the current sealed snapshot, readable without locks; nil
	// until the owning catalog first publishes. See epoch.go.
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
func (t *Table) Len() int { return t.rows.Len() }

// Rows returns all rows in unspecified order. The result is a fresh slice;
// the rows themselves are shared and must not be modified.
func (t *Table) Rows() []Row { return t.rows.Append(make([]Row, 0, t.rows.Len())) }

// Row returns the row at handle h, as an Index bucket names it.
func (t *Table) Row(h int32) Row { return t.rows.At(h).Row }

// Get returns the row with the given key values, if present.
func (t *Table) Get(keyVals ...Value) (Row, bool) {
	return t.GetEncoded(EncodeValues(keyVals...))
}

// GetEncoded returns the row with the given pre-encoded key, if present.
func (t *Table) GetEncoded(encodedKey string) (Row, bool) {
	h, ok := t.rows.Lookup(encodedKey)
	if !ok {
		return nil, false
	}
	return t.rows.At(h).Row, true
}

// HandleBytes returns the handle of the row with the encoded key held in a
// reusable byte buffer; the in-place string conversion avoids allocating a
// key per probe.
func (t *Table) HandleBytes(encodedKey []byte) (int32, bool) { return t.rows.LookupBytes(encodedKey) }

// ContainsKey reports whether a row with the encoded key exists.
func (t *Table) ContainsKey(encodedKey string) bool {
	_, ok := t.rows.Lookup(encodedKey)
	return ok
}

// KeyOf returns the encoded unique key of a row of this table.
func (t *Table) KeyOf(row Row) string { return EncodeRowCols(row, t.keyCols) }

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
	ix := &Index{name: name, cols: offsets, rows: &t.rows, pinned: pinned}
	t.rows.Handles(func(h int32) bool {
		ix.file(t.rows.At(h).Row, h, true)
		return true
	})
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

// replace stores a private copy of row in slot h, whose row has the same
// key, and returns the row it replaced. The row keeps its handle: an index
// whose columns row leaves unchanged is not touched.
func (t *Table) replace(h int32, row Row) Row {
	old := t.rows.At(h).Row
	row = row.Clone()
	for _, ix := range t.indexes {
		ix.replace(old, row, h)
	}
	return t.rows.Update(h, row)
}

// indexSlot is the table's link hook (Store.Init): it files the row in slot
// h in every index, or takes it out of them.
func (t *Table) indexSlot(h int32, link bool) {
	for _, ix := range t.indexes {
		ix.file(t.rows.At(h).Row, h, link)
	}
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
