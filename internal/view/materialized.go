package view

import (
	"fmt"

	"ojv/internal/algebra"
	"ojv/internal/exec"
	"ojv/internal/rel"
)

// Materialized is the stored contents of a non-aggregated SPOJ view.
//
// Physical design: every row is identified by the view's unique key — the
// concatenation of the key columns of all referenced tables (NULL-marked
// for null-extended tables), exactly the clustered index the paper creates
// on its experimental views. Rows live in one store by that key (store.go);
// a per-pattern counter tracks how many rows each normal-form term
// contributes (used by the Table 1 experiment and EXPLAIN output); and an
// optional per-table key index maps each base-table key to the view rows
// containing that tuple, playing the role of the paper's secondary view
// indexes during orphan checks. The rows are a rel.Store's; the counters,
// the chains and the membership words are the view's (store.go).
type Materialized struct {
	def  *Definition
	opts Options

	// schema is the projected output schema.
	schema rel.Schema
	// outCols maps output positions to fullSchema positions.
	outCols []int
	// tableOrder is the sorted table list; patterns are bitmasks over it,
	// and every per-table slice here and in the store is indexed by a
	// table's position in it.
	tableOrder []string
	// keyCols[i] lists the positions in the OUTPUT schema of table i's key
	// columns; witnessCol[i] is the first of them, used to test null(t).
	keyCols    [][]int
	witnessCol []int
	// colTable[c] is the table position of output column c.
	colTable []int
	// filters[i] is the predicate of the family's filtered member in slot i
	// (nil: no filtered member there); linkSlot sets a row's membership bit
	// i when it links a row the predicate accepts. nil in a family with no
	// filtered member.
	filters []func(rel.Row) algebra.Tri

	rows rel.Store
	store
}

// newMaterialized wires up the storage for a definition.
func newMaterialized(def *Definition, opts Options) (*Materialized, error) {
	if def.Agg != nil {
		return nil, fmt.Errorf("view %s: aggregation views use AggMaterialized", def.Name)
	}
	if len(def.tables) > maxTables {
		return nil, fmt.Errorf("view %s: %d tables, a term pattern holds %d", def.Name, len(def.tables), maxTables)
	}
	m := &Materialized{
		def:        def,
		opts:       opts,
		tableOrder: def.tables,
		keyCols:    make([][]int, len(def.tables)),
		witnessCol: make([]int, len(def.tables)),
		store:      store{patternCount: make(map[uint32]int)},
	}
	if !opts.DisableOrphanIndex {
		m.perTable = make([]rel.Chains[string], len(def.tables))
	}
	m.rows.Init(m.linkSlot, true)
	outSchema := make(rel.Schema, len(def.Output))
	m.outCols = make([]int, len(def.Output))
	for i, c := range def.Output {
		p := def.fullSchema.MustIndexOf(c.Table, c.Column)
		m.outCols[i] = p
		outSchema[i] = def.fullSchema[p]
	}
	m.schema = outSchema
	for i, t := range m.tableOrder {
		tab := def.cat.Table(t)
		for _, kc := range tab.KeyCols() {
			name := tab.Schema()[kc].Name
			m.keyCols[i] = append(m.keyCols[i], outSchema.MustIndexOf(t, name))
		}
		m.witnessCol[i] = m.keyCols[i][0]
	}
	m.colTable = make([]int, len(outSchema))
	for c, col := range outSchema {
		m.colTable[c] = def.tablePos(col.Table)
	}
	return m, nil
}

// Schema returns the view's output schema.
func (m *Materialized) Schema() rel.Schema { return m.schema }

// Len returns the number of rows in the view.
func (m *Materialized) Len() int { return m.rows.Len() }

// Rows returns all view rows in unspecified order.
func (m *Materialized) Rows() []rel.Row { return m.rows.Append(make([]rel.Row, 0, m.rows.Len())) }

// appendKey appends a view key to buf: for every table of mask, the encoded
// values row carries at cols[i] (table i's key columns, in whatever schema
// row has); for every other table, NULL marks.
func (m *Materialized) appendKey(buf []byte, row rel.Row, cols [][]int, mask uint32) []byte {
	for i, kc := range m.keyCols {
		if mask&(1<<uint(i)) != 0 {
			buf = rel.AppendRowCols(buf, row, cols[i])
			continue
		}
		for range kc {
			buf = append(buf, nullTag)
		}
	}
	return buf
}

// viewKey computes the unique key of an output row: all tables' key columns
// in sorted-table order.
func (m *Materialized) viewKey(row rel.Row) string {
	var scratch [64]byte
	return string(m.appendKey(scratch[:0], row, m.keyCols, ^uint32(0)))
}

// splitKey records where each table's part of a view key starts.
func (m *Materialized) splitKey(key string, parts *keyParts) {
	off := int32(0)
	for i, kc := range m.keyCols {
		parts[i] = off
		for range kc {
			off = skipEncoded(key, off)
		}
	}
	parts[len(m.keyCols)] = off
}

// pattern computes the non-null table bitmask of an output row (which
// normal-form term the row belongs to).
func (m *Materialized) pattern(row rel.Row) uint32 {
	var p uint32
	for i, w := range m.witnessCol {
		if !row[w].IsNull() {
			p |= 1 << uint(i)
		}
	}
	return p
}

// patternOf returns the bitmask of a table set.
func (m *Materialized) patternOf(tables []string) uint32 { return m.def.maskOf(tables) }

// TermCardinality returns the number of view rows whose source-table set is
// exactly the given set (the per-term cardinalities of the paper's
// Table 1).
func (m *Materialized) TermCardinality(tables []string) int {
	return m.patternCount[m.patternOf(tables)]
}

// duplicateKey is the error of a second row under one view key, which
// would indicate a maintenance bug or an out-of-contract view.
func duplicateKey(view string, row rel.Row) error {
	return fmt.Errorf("view %s: duplicate view key for row %s", view, row)
}

// membership returns the membership word of a row: the bits of the filtered
// members that accept it.
func (m *Materialized) membership(row rel.Row) uint64 {
	var w uint64
	for i, accept := range m.filters {
		if accept != nil && accept(row) == algebra.True {
			w |= 1 << uint(i)
		}
	}
	return w
}

// rebits recomputes the membership word of every linked row, after the
// family's filtered members changed.
func (m *Materialized) rebits() {
	if m.filters == nil {
		return
	}
	m.bits = make([]uint64, m.rows.Used())
	m.rows.Handles(func(h int32) bool {
		m.bits[h] = m.membership(m.rows.At(h).Row)
		return true
	})
}

// linkSlot is the view's link hook (rel.Store.Init): the row in slot h
// enters its term's counter and its tables' chains and gets its membership
// word (link), or leaves them and stays in its slot — a changeset's
// rollback relinks it at the same handle, its commit releases the slot.
func (m *Materialized) linkSlot(h int32, link bool) {
	sl := m.rows.At(h)
	if !link {
		m.patternCount[m.index(sl.Key, h, false)]--
		return
	}
	for i := range m.perTable {
		m.perTable[i].Grow(h)
	}
	m.patternCount[m.index(sl.Key, h, true)]++
	if m.filters != nil {
		if n := int(h) + 1 - len(m.bits); n > 0 {
			m.bits = append(m.bits, make([]uint64, n)...)
		}
		m.bits[h] = m.membership(sl.Row)
	}
}

// index puts row h, stored under view key k, on the chain of every table k
// is non-null on (add) or takes it off them (!add), and returns the row's
// term pattern, read off the same walk of the key.
func (m *Materialized) index(k string, h int32, add bool) uint32 {
	var parts keyParts
	m.splitKey(k, &parts)
	var pat uint32
	for i := range m.keyCols {
		if k[parts[i]] == nullTag {
			continue
		}
		pat |= 1 << uint(i)
		if m.perTable == nil {
			continue
		}
		tk := k[parts[i]:parts[i+1]]
		match := func(head int32) bool { return m.part(head, i) == tk }
		if add {
			m.perTable[i].Add(tk, h, match)
		} else {
			m.perTable[i].Delete(tk, h, match)
		}
	}
	return pat
}

// chain returns table i's chain of the table key tk.
func (m *Materialized) chain(i int, tk string) rel.Chain {
	return m.perTable[i].Get(tk, func(head int32) bool { return m.part(head, i) == tk })
}

// part returns table i's part of the view key of the row in slot h: what
// table i's chains file the row under.
func (m *Materialized) part(h int32, i int) string {
	k, off := m.rows.At(h).Key, int32(0)
	for _, kc := range m.keyCols[:i] {
		for range kc {
			off = skipEncoded(k, off)
		}
	}
	end := off
	for range m.keyCols[i] {
		end = skipEncoded(k, end)
	}
	return k[off:end]
}

// containsTuple reports whether any view row carries exactly the base-table
// tuples that key — an orphan-shaped view key — names for the tables of
// mask (non-null and key-equal on every one of them). Used by the
// deletion-case secondary delta: a candidate is a new orphan iff no
// remaining view row contains it.
func (m *Materialized) containsTuple(mask uint32, key string) bool {
	var parts keyParts
	m.splitKey(key, &parts)
	if m.perTable == nil {
		found := false
		m.rows.Handles(func(h int32) bool {
			found = m.keyMatches(m.rows.At(h).Key, mask, key, &parts)
			return !found
		})
		return found
	}
	// An empty chain for any table proves no view row contains the tuple,
	// whatever the other chains hold; otherwise walk the shortest chain.
	best, bestTable := rel.Chain{}, -1
	for i := range m.keyCols {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		c := m.chain(i, key[parts[i]:parts[i+1]])
		if c.Count == 0 {
			return false
		}
		if bestTable < 0 || c.Count < best.Count {
			best, bestTable = c, i
		}
	}
	if bestTable < 0 {
		return false
	}
	for h := best.Head; h != rel.NoHandle; h = m.perTable[bestTable].Next(h) {
		m.walked++
		if m.keyMatches(m.rows.At(h).Key, mask, key, &parts) {
			return true
		}
	}
	return false
}

// keyMatches reports whether the stored view key rowKey is non-null on, and
// agrees with key on, the part of every table of mask; parts splits key.
func (m *Materialized) keyMatches(rowKey string, mask uint32, key string, parts *keyParts) bool {
	off := int32(0)
	for i, kc := range m.keyCols {
		start := off
		for range kc {
			off = skipEncoded(rowKey, off)
		}
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if rowKey[start] == nullTag || rowKey[start:off] != key[parts[i]:parts[i+1]] {
			return false
		}
	}
	return true
}

// Materialize recomputes the view contents from scratch by evaluating the
// definition expression. The stored contents are replaced only on success:
// the rebuild fills a fresh view whose rows and store are swapped in whole,
// so a mid-build failure (e.g. a duplicate view key from an out-of-contract
// definition) leaves the current contents, slab and free list untouched.
func (m *Materialized) Materialize() error {
	ctx := &exec.Context{Catalog: m.def.cat}
	res, err := exec.Eval(ctx, m.def.Expr)
	if err != nil {
		return err
	}
	proj, err := projectToOutput(res, m.def, m.schema)
	if err != nil {
		return err
	}
	fresh, err := newMaterialized(m.def, m.opts)
	if err != nil {
		return err
	}
	fresh.filters = m.filters
	for _, row := range proj {
		k := fresh.viewKey(row)
		if _, dup := fresh.rows.Lookup(k); dup {
			return duplicateKey(m.def.Name, row)
		}
		fresh.rows.Fill(k, row)
	}
	m.rows.Adopt(&fresh.rows)
	m.store = fresh.store
	return nil
}

// projectToOutput converts rows of any sub-schema of the full tuple space
// into the view's output schema, treating absent columns as NULL (they
// belong to tables pruned from a simplified delta expression).
func projectToOutput(r exec.Relation, def *Definition, outSchema rel.Schema) ([]rel.Row, error) {
	return projectRows(make([]rel.Row, 0, len(r.Rows)), r.Rows, outputMapping(r.Schema, outSchema)), nil
}

// outputMapping resolves projectToOutput's column mapping once: output
// column i is column mapping[i] of from, or NULL when −1. A maintenance
// plan keeps the mapping of its ΔV^D schema and projects every batch
// through it.
func outputMapping(from, outSchema rel.Schema) []int {
	mapping := make([]int, len(outSchema))
	for i, c := range outSchema {
		mapping[i] = from.IndexOf(c.Table, c.Name)
	}
	return mapping
}

// projectRows appends to dst a fresh output-schema copy of every row.
func projectRows(dst, rows []rel.Row, mapping []int) []rel.Row {
	for _, row := range rows {
		dst = append(dst, projectRow(row, mapping))
	}
	return dst
}

// projectRow returns row projected through mapping (see outputMapping).
func projectRow(row rel.Row, mapping []int) rel.Row {
	pr := make(rel.Row, len(mapping))
	for j, src := range mapping {
		if src >= 0 {
			pr[j] = row[src]
		}
	}
	return pr
}

// SortedRows returns the view contents sorted by encoded row, for
// deterministic comparison in tests and tools.
func (m *Materialized) SortedRows() []rel.Row {
	rows := m.Rows()
	rel.SortRows(rows)
	return rows
}

// Definition returns the view's definition.
func (m *Materialized) Definition() *Definition { return m.def }

// Options returns the options the view was registered with.
func (m *Materialized) Options() Options { return m.opts }

// OrphanIndexed reports whether the view keeps the per-table chains that
// orphan checks probe (Options.DisableOrphanIndex drops them).
func (m *Materialized) OrphanIndexed() bool { return m.perTable != nil }
