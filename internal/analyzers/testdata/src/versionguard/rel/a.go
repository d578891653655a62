// Package rel is the versionguard corpus: a miniature catalog layer whose
// exported mutators must bump Catalog.version, mirroring the invariant the
// Prevalidated() flush fast path depends on.
package rel

// counter mirrors atomic.Uint64: the real catalog's version counter is
// atomic (independent flush components bump it concurrently), so a bump is
// the method call c.version.Add(1) rather than an assignment.
type counter struct{ v int }

func (c *counter) Add(d int) int { c.v += d; return c.v }
func (c *counter) Load() int     { return c.v }

// Catalog, Table and Index mirror the guarded types of the real rel
// package: their fields are committed state.
type Catalog struct {
	version counter
	tables  map[string]*Table
}

type Table struct {
	name    string
	rows    []int
	ix      *Index
	indexes []*Index
	// handles, slab and log mirror the handle-addressed store: a key map to
	// slab handles, the slab, and the mutations since the last publish.
	handles map[string]int32
	slab    Slab
	log     []int32
}

// Slab mirrors rel.Slab: a container of its own, not a guarded type, whose
// exported methods write only its own fields. It is reached as committed
// state through a Table field.
type Slab struct {
	slots []Slot
	free  []int32
}

type Slot struct{ row int }

func (s *Slab) At(h int32) *Slot { return &s.slots[h] }

func (s *Slab) Alloc() int32 {
	s.slots = append(s.slots, Slot{})
	return int32(len(s.slots) - 1)
}

func (s *Slab) Release(h int32) {
	*s.At(h) = Slot{}
	s.free = append(s.free, h)
}

type Index struct {
	cols []string
}

// Version is a read, not a mutation.
func (c *Catalog) Version() int { return c.version.Load() }

// AddRow mutates committed Table state and never bumps: the fast path would
// reuse validation computed against the old row set.
func (t *Table) AddRow(v int) { // want `exported Table\.AddRow reaches a mutation of committed Table\.rows state \(line \d+\) without bumping Catalog\.version`
	t.rows = append(t.rows, v)
}

// Drop reaches a mutation only through an unexported helper; the
// transitive closure still pins the blame on the exported entry point.
func (c *Catalog) Drop(name string) { // want `exported Catalog\.Drop reaches a mutation of committed Catalog\.tables state \(line \d+\) without bumping Catalog\.version`
	c.drop(name)
}

func (c *Catalog) drop(name string) {
	delete(c.tables, name)
}

// Rename mutates and bumps directly (atomic form): nothing to report.
func (c *Catalog) Rename(old, next string) {
	t := c.tables[old]
	delete(c.tables, old)
	c.tables[next] = t
	c.version.Add(1)
}

// Truncate bumps through a helper; the bump property is closed over the
// call graph just like the mutation property.
func (c *Catalog) Truncate(name string) {
	if t := c.tables[name]; t != nil {
		t.rows = nil
		t.ix.cols = t.ix.cols[:0]
	}
	c.bump()
}

func (c *Catalog) bump() { c.version.Add(1) }

// DropIndex removes an index from a table through an unexported helper and
// never bumps: base apply would stop maintaining an index that a plan
// validated (and a program compiled) against the old index set still uses.
func (c *Catalog) DropIndex(name string, ix *Index) { // want `exported Catalog\.DropIndex reaches a mutation of committed Table\.indexes state \(line \d+\) without bumping Catalog\.version`
	if t := c.tables[name]; t != nil {
		t.dropIndex(ix)
	}
}

func (t *Table) dropIndex(ix *Index) {
	for i, have := range t.indexes {
		if have == ix {
			t.indexes = append(t.indexes[:i], t.indexes[i+1:]...)
			return
		}
	}
}

// Release is the shape the real catalog uses for arrangements: the same
// helper, and the version moves with the index set.
func (c *Catalog) Release(name string, ix *Index) {
	if t := c.tables[name]; t != nil {
		t.dropIndex(ix)
	}
	c.version.Add(1)
}

// Restore swaps in a whole catalog before any plan can exist, so the stale
// fast-path hazard cannot arise; the exemption is vetted in source.
//
//ojvlint:ignore versionguard restore runs before planning, so no Prevalidated() state can be stale
func (c *Catalog) Restore(tabs map[string]*Table) {
	c.tables = tabs
}

// Overwrite writes a slab slot through the pointer the slab hands out.
func (t *Table) Overwrite(h int32, v int) { // want `exported Table\.Overwrite reaches a mutation of committed Table\.slab state \(line \d+\) without bumping Catalog\.version`
	t.slab.At(h).row = v
}

// Patch writes the same slot through a local pointer to it.
func (t *Table) Patch(h int32, v int) { // want `exported Table\.Patch reaches a mutation of committed Table\.slab state \(line \d+\) without bumping Catalog\.version`
	s := t.slab.At(h)
	s.row = v
}

// Free releases a slot by calling a slab method that writes its receiver.
func (c *Catalog) Free(name string, h int32) { // want `exported Catalog\.Free reaches a mutation of committed Table\.slab state \(line \d+\) without bumping Catalog\.version`
	c.tables[name].slab.Release(h)
}

// Forget drops the log, so the next publish or rollback misses mutations.
func (t *Table) Forget() { // want `exported Table\.Forget reaches a mutation of committed Table\.log state \(line \d+\) without bumping Catalog\.version`
	t.log = t.log[:0]
}

// Relink puts a handle back under its key and logs it, and bumps: the
// shape of the real rollback.
func (c *Catalog) Relink(name, key string, h int32) {
	t := c.tables[name]
	t.handles[key] = h
	t.log = append(t.log, h)
	c.version.Add(1)
}

// Peek reads a slot through a local pointer and writes nothing.
func (t *Table) Peek(h int32) int {
	s := t.slab.At(h)
	return s.row
}
