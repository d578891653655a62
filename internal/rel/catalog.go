package rel

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
)

// Catalog is a named collection of base tables plus the declared foreign-key
// constraints between them. All mutations go through the catalog so that
// key and foreign-key invariants hold whenever view maintenance runs.
type Catalog struct {
	tables map[string]*Table
	names  []string
	// inbound maps a referenced table name to the constraints pointing at it.
	inbound map[string][]inboundFK
	// design counts changes to the physical design — the table set, the
	// indexes, the constraints — and nothing else; see DesignGeneration.
	design atomic.Uint64
	// epochs holds the publish counter and the lock-free table directory
	// for snapshot readers; see epoch.go.
	epochs catalogEpochs
}

// inboundFK is one constraint seen from the referenced side, with what the
// RESTRICT check needs resolved once: the referencing table's index over
// the constraint's columns, and for each index column the position of its
// value in a referenced key.
type inboundFK struct {
	fromTable string
	fk        ForeignKey
	ix        *Index
	keyPos    []int
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables:  make(map[string]*Table),
		inbound: make(map[string][]inboundFK),
	}
}

// DesignGeneration identifies the catalog's physical design: it moves when
// a table, an index or a foreign key is added, when an arrangement is built
// or dropped, and when Restore swaps the tables, and never on a data commit.
// A compiled executor program holds *Table and *Index pointers and a
// per-join index choice, so it is valid exactly as long as the generation
// it was compiled at.
func (c *Catalog) DesignGeneration() uint64 { return c.design.Load() }

// CreateTable creates a table with the given columns and unique key. Key
// columns are implicitly NOT NULL, as the paper requires.
func (c *Catalog) CreateTable(name string, cols []Column, key ...string) (*Table, error) {
	if _, dup := c.tables[name]; dup {
		return nil, fmt.Errorf("rel: table %s already exists", name)
	}
	if len(key) == 0 {
		return nil, fmt.Errorf("rel: table %s: a unique key is required", name)
	}
	schema := make(Schema, len(cols))
	for i, col := range cols {
		col.Table = name
		schema[i] = col
	}
	keyCols := make([]int, len(key))
	for i, k := range key {
		p := schema.IndexOf(name, k)
		if p < 0 {
			return nil, fmt.Errorf("rel: table %s: key column %s does not exist", name, k)
		}
		schema[p].NotNull = true
		keyCols[i] = p
	}
	t := &Table{name: name, schema: schema, keyCols: keyCols}
	t.rows.Init(t.indexSlot, false)
	c.tables[name] = t
	c.names = append(c.names, name)
	c.design.Add(1)
	if c.epochs.dir.Load() != nil {
		c.publishDir()
	}
	return t, nil
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table { return c.tables[name] }

// TableNames returns the table names in creation order.
func (c *Catalog) TableNames() []string {
	out := make([]string, len(c.names))
	copy(out, c.names)
	return out
}

// TableSchema implements the schema-resolver interface used by the algebra
// and executor packages.
func (c *Catalog) TableSchema(name string) (Schema, bool) {
	t := c.tables[name]
	if t == nil {
		return nil, false
	}
	return t.schema, true
}

// AddForeignKey declares and begins enforcing a foreign key from
// table(cols...) to refTable(refCols...). The referenced columns must be the
// referenced table's unique key and the referencing columns must be NOT
// NULL; both conditions are what make the paper's foreign-key optimizations
// (Section 6) sound. A secondary index on the referencing columns validates
// deletes from the referenced table: an index already on that column set is
// adopted — and pinned, so an arrangement the constraint now depends on
// outlives the views that asked for it — otherwise one is created.
func (c *Catalog) AddForeignKey(table string, cols []string, refTable string, refCols []string) error {
	t := c.tables[table]
	if t == nil {
		return fmt.Errorf("rel: unknown table %s", table)
	}
	rt := c.tables[refTable]
	if rt == nil {
		return fmt.Errorf("rel: unknown referenced table %s", refTable)
	}
	if len(cols) != len(refCols) || len(cols) == 0 {
		return fmt.Errorf("rel: foreign key %s->%s: column count mismatch", table, refTable)
	}
	refOffsets := make([]int, len(refCols))
	for i, rc := range refCols {
		p := rt.schema.IndexOf(refTable, rc)
		if p < 0 {
			return fmt.Errorf("rel: foreign key: column %s.%s does not exist", refTable, rc)
		}
		refOffsets[i] = p
	}
	if !SameIntSet(refOffsets, rt.keyCols) {
		return fmt.Errorf("rel: foreign key %s->%s must reference the unique key of %s", table, refTable, refTable)
	}
	offsets := make([]int, len(cols))
	for i, fc := range cols {
		p := t.schema.IndexOf(table, fc)
		if p < 0 {
			return fmt.Errorf("rel: foreign key: column %s.%s does not exist", table, fc)
		}
		if !t.schema[p].NotNull {
			return fmt.Errorf("rel: foreign key column %s.%s must be NOT NULL", table, fc)
		}
		offsets[i] = p
	}
	fk := ForeignKey{
		Cols:     append([]string(nil), cols...),
		RefTable: refTable,
		RefCols:  append([]string(nil), refCols...),
		keySrc:   make([]int, len(rt.keyCols)),
	}
	for i, kc := range rt.keyCols {
		fk.keySrc[i] = offsets[slices.Index(refOffsets, kc)]
	}
	var violated Row
	t.rows.Handles(func(h int32) bool {
		if row := t.Row(h); !c.fkSatisfied(fk, row) {
			violated = row
		}
		return violated == nil
	})
	if violated != nil {
		return fmt.Errorf("rel: foreign key %s->%s violated by existing row %s", table, refTable, violated)
	}
	ix := t.IndexOnSet(offsets)
	if ix == nil {
		ix = t.buildIndex(fmt.Sprintf("fk_%s_%s", table, refTable), offsets, true)
	} else {
		ix.pinned = true
	}
	keyPos := make([]int, len(ix.cols))
	for i, ic := range ix.cols {
		keyPos[i] = slices.Index(fk.keySrc, ic)
	}
	t.fks = append(t.fks, fk)
	c.inbound[refTable] = append(c.inbound[refTable], inboundFK{fromTable: table, fk: fk, ix: ix, keyPos: keyPos})
	c.design.Add(1)
	return nil
}

// CreateIndex declares a secondary hash index over the named columns of a
// table. When the column set is already arranged (Arrange) the arrangement
// is adopted — renamed and pinned — instead of building a twin; otherwise
// the index is built. On success the design generation moves, so compiled
// programs pick the index up.
func (c *Catalog) CreateIndex(table, name string, cols ...string) (*Index, error) {
	t, ok := c.tables[table]
	if !ok {
		return nil, fmt.Errorf("rel: unknown table %s", table)
	}
	for _, ix := range t.indexes {
		if ix.name == name {
			return nil, fmt.Errorf("rel: table %s: index %s already exists", table, name)
		}
	}
	offsets, err := t.columnOffsets(cols)
	if err != nil {
		return nil, err
	}
	ix := t.IndexOnSet(offsets)
	if ix != nil && !ix.pinned {
		ix.name, ix.pinned = name, true
	} else {
		ix = t.buildIndex(name, offsets, true)
	}
	c.design.Add(1)
	return ix, nil
}

// Arrange acquires the arrangement over a column set (offsets, in any
// order) of a table for one holder: the maintained index a view's
// maintenance joins probe. The first index on that set serves — a declared
// one as it stands, an arrangement another view already holds — and when
// there is none the catalog builds one, which moves the design generation
// so compiled programs pick it up. Every Arrange is matched by one Release
// of the returned index.
func (c *Catalog) Arrange(table string, cols []int) (*Index, error) {
	t := c.tables[table]
	if t == nil {
		return nil, fmt.Errorf("rel: unknown table %s", table)
	}
	ix := t.IndexOnSet(cols)
	if ix == nil {
		offsets := slices.Clone(cols)
		slices.Sort(offsets)
		name := "arr_" + table
		for _, o := range offsets {
			if o < 0 || o >= len(t.schema) {
				return nil, fmt.Errorf("rel: table %s: arranged column %d does not exist", table, o)
			}
			name += "_" + t.schema[o].Name
		}
		ix = t.buildIndex(name, offsets, false)
		c.design.Add(1)
	}
	ix.holders++
	return ix, nil
}

// Release gives back one hold on an index Arrange returned. An arrangement
// nobody declared (see Index) is dropped with its last holder, which moves
// the design generation like its creation did.
func (c *Catalog) Release(table string, ix *Index) {
	ix.holders--
	if ix.holders > 0 || ix.pinned {
		return
	}
	if t := c.tables[table]; t != nil {
		t.dropIndex(ix)
	}
	c.design.Add(1)
}

// fkSatisfied reports whether the row referenced by row's fk columns
// exists.
func (c *Catalog) fkSatisfied(fk ForeignKey, row Row) bool {
	var buf [64]byte
	_, ok := c.tables[fk.RefTable].HandleBytes(AppendRowCols(buf[:0], row, fk.keySrc))
	return ok
}

// ForeignKeys returns the outbound foreign keys of the named table. It
// returns nil for unknown tables, which lets the planner treat an absent
// table as having no constraints.
func (c *Catalog) ForeignKeys(table string) []ForeignKey {
	t := c.tables[table]
	if t == nil {
		return nil
	}
	return t.ForeignKeys()
}

// ReferencingKeys returns the foreign keys of all tables that reference the
// given table, as (referencing table, fk) pairs.
func (c *Catalog) ReferencingKeys(refTable string) []ForeignKeyRef {
	in := c.inbound[refTable]
	out := make([]ForeignKeyRef, len(in))
	for i, r := range in {
		out[i] = ForeignKeyRef{Table: r.fromTable, FK: r.fk}
	}
	return out
}

// ForeignKeyRef pairs a referencing table with one of its foreign keys.
type ForeignKeyRef struct {
	Table string
	FK    ForeignKey
}

// Insert inserts rows into the named table, enforcing key uniqueness, NOT
// NULL constraints and outbound foreign keys. On error no row is applied
// (all-or-nothing per batch).
func (c *Catalog) Insert(table string, rows []Row) error {
	t := c.tables[table]
	if t == nil {
		return fmt.Errorf("rel: unknown table %s", table)
	}
	// Pre-validate: keys unique (including within the batch) and FKs satisfied.
	// A one-row statement has no duplicate to find within it.
	keys := make([]string, len(rows))
	var seen map[string]bool
	if len(rows) > 1 {
		seen = make(map[string]bool, len(rows))
	}
	for i, row := range rows {
		if err := t.validateRow(row); err != nil {
			return err
		}
		k := t.KeyOf(row)
		if seen[k] || t.ContainsKey(k) {
			return fmt.Errorf("rel: table %s: duplicate key %v", table, row.Project(t.keyCols))
		}
		if seen != nil {
			seen[k] = true
		}
		keys[i] = k
		if err := c.checkOutboundFKs(t, row); err != nil {
			return err
		}
	}
	for i, row := range rows {
		// The row is cloned, so callers remain free to reuse or mutate
		// their row slices once the insert returns.
		t.rows.Insert(keys[i], row.Clone())
	}
	return nil
}

func (c *Catalog) checkOutboundFKs(t *Table, row Row) error {
	for _, fk := range t.fks {
		if !c.fkSatisfied(fk, row) {
			return fmt.Errorf("rel: foreign key %s(%v)->%s violated by row %s", t.name, fk.Cols, fk.RefTable, row)
		}
	}
	return nil
}

// Delete removes the rows with the given key value lists from the named
// table and returns the full deleted rows. Deleting a row that is still
// referenced through an inbound foreign key is an error (RESTRICT
// semantics; the paper's FK optimization excludes cascading deletes).
func (c *Catalog) Delete(table string, keys [][]Value) ([]Row, error) {
	t := c.tables[table]
	if t == nil {
		return nil, fmt.Errorf("rel: unknown table %s", table)
	}
	handles := make([]int32, len(keys))
	var seen map[string]bool
	if len(keys) > 1 {
		seen = make(map[string]bool, len(keys))
	}
	for i, kv := range keys {
		if len(kv) != len(t.keyCols) {
			return nil, fmt.Errorf("rel: table %s: key has %d values, expected %d", table, len(kv), len(t.keyCols))
		}
		k := EncodeValues(kv...)
		if seen[k] {
			return nil, fmt.Errorf("rel: table %s: duplicate key %v in delete", table, kv)
		}
		if seen != nil {
			seen[k] = true
		}
		h, ok := t.rows.Lookup(k)
		if !ok {
			return nil, fmt.Errorf("rel: table %s: no row with key %v", table, kv)
		}
		handles[i] = h
	}
	// RESTRICT check: no inbound references to any deleted row.
	for _, kv := range keys {
		if err := c.checkRestrict(table, kv); err != nil {
			return nil, err
		}
	}
	out := make([]Row, 0, len(keys))
	for _, h := range handles {
		out = append(out, t.rows.At(h).Row)
		t.rows.Remove(h)
	}
	return out, nil
}

// checkRestrict fails when a row of another table still references the
// row of table with key kv (in the table's key column order): when the
// referencing table's index files a row under it.
func (c *Catalog) checkRestrict(table string, kv []Value) error {
	var buf [64]byte
	for _, in := range c.inbound[table] {
		if in.ix.Get(AppendRowCols(buf[:0], kv, in.keyPos)).Count > 0 {
			return fmt.Errorf("rel: cannot delete %s key %v: referenced by %s", table, kv, in.fromTable)
		}
	}
	return nil
}

// Update replaces the row with the given key by newRow, which must have
// the same key values. Inbound references stay valid (the key is
// unchanged), so only the new row's outbound foreign keys are checked. It
// returns the old row. View maintenance treats the update as a deletion of
// the old row followed by an insertion of the new one.
func (c *Catalog) Update(table string, key []Value, newRow Row) (Row, error) {
	t := c.tables[table]
	if t == nil {
		return nil, fmt.Errorf("rel: unknown table %s", table)
	}
	if err := t.validateRow(newRow); err != nil {
		return nil, err
	}
	enc := EncodeValues(key...)
	if t.KeyOf(newRow) != enc {
		return nil, fmt.Errorf("rel: table %s: update must not change the key", table)
	}
	h, ok := t.rows.Lookup(enc)
	if !ok {
		return nil, fmt.Errorf("rel: table %s: no row with key %v", table, key)
	}
	if err := c.checkOutboundFKs(t, newRow); err != nil {
		return nil, err
	}
	return t.replace(h, newRow), nil
}

// SortRows sorts rows by their full encoded value, for deterministic output
// in tools and tests. Each row is encoded once.
func SortRows(rows []Row) {
	type keyed struct {
		key string
		row Row
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		ks[i] = keyed{EncodeValues(r...), r}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	for i := range ks {
		rows[i] = ks[i].row
	}
}
