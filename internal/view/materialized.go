package view

import (
	"fmt"

	"ojv/internal/exec"
	"ojv/internal/rel"
)

// Materialized is the stored contents of a non-aggregated SPOJ view.
//
// Physical design: every row is identified by the view's unique key — the
// concatenation of the key columns of all referenced tables (NULL-marked
// for null-extended tables), exactly the clustered index the paper creates
// on its experimental views. Rows live in one hash map by that key; a
// per-pattern counter tracks how many rows each normal-form term
// contributes (used by the Table 1 experiment and EXPLAIN output); and an
// optional per-table key index maps each base-table key to the view rows
// containing that tuple, playing the role of the paper's secondary view
// indexes during orphan checks.
type Materialized struct {
	def  *Definition
	opts Options

	// schema is the projected output schema.
	schema rel.Schema
	// outCols maps output positions to fullSchema positions.
	outCols []int
	// tableOrder is the sorted table list; patterns are bitmasks over it.
	tableOrder []string
	tableBit   map[string]uint
	// keyCols[t] lists the positions in the OUTPUT schema of t's key columns.
	keyCols map[string][]int
	// witnessCol[t] is the output position of one key column of t, used to
	// test null(t).
	witnessCol map[string]int

	rows         map[string]rel.Row
	patternCount map[uint32]int
	// perTable[t] maps an encoded base-table key to the set of view-row keys
	// whose t-part equals that tuple. Nil when Options.DisableOrphanIndex.
	perTable map[string]map[string]map[string]struct{}

	// dirtyKeys tracks the rows touched since the last epoch publish; nil
	// until the maintainer enables snapshots (see epoch.go).
	dirtyKeys map[string]struct{}
}

// newMaterialized wires up the storage for a definition.
func newMaterialized(def *Definition, opts Options) (*Materialized, error) {
	if def.Agg != nil {
		return nil, fmt.Errorf("view %s: aggregation views use AggMaterialized", def.Name)
	}
	m := &Materialized{
		def:          def,
		opts:         opts,
		tableOrder:   def.tables,
		tableBit:     make(map[string]uint, len(def.tables)),
		keyCols:      make(map[string][]int, len(def.tables)),
		witnessCol:   make(map[string]int, len(def.tables)),
		rows:         make(map[string]rel.Row),
		patternCount: make(map[uint32]int),
	}
	outSchema := make(rel.Schema, len(def.Output))
	m.outCols = make([]int, len(def.Output))
	for i, c := range def.Output {
		p := def.fullSchema.MustIndexOf(c.Table, c.Column)
		m.outCols[i] = p
		outSchema[i] = def.fullSchema[p]
	}
	m.schema = outSchema
	for bit, t := range m.tableOrder {
		m.tableBit[t] = uint(bit)
		tab := def.cat.Table(t)
		for _, kc := range tab.KeyCols() {
			name := tab.Schema()[kc].Name
			m.keyCols[t] = append(m.keyCols[t], outSchema.MustIndexOf(t, name))
		}
		m.witnessCol[t] = m.keyCols[t][0]
	}
	if !opts.DisableOrphanIndex {
		m.perTable = make(map[string]map[string]map[string]struct{}, len(m.tableOrder))
		for _, t := range m.tableOrder {
			m.perTable[t] = make(map[string]map[string]struct{})
		}
	}
	return m, nil
}

// Schema returns the view's output schema.
func (m *Materialized) Schema() rel.Schema { return m.schema }

// Len returns the number of rows in the view.
func (m *Materialized) Len() int { return len(m.rows) }

// Rows returns all view rows in unspecified order.
func (m *Materialized) Rows() []rel.Row {
	out := make([]rel.Row, 0, len(m.rows))
	for _, r := range m.rows {
		out = append(out, r)
	}
	return out
}

// viewKey computes the unique key of an output row: all tables' key columns
// in sorted-table order.
func (m *Materialized) viewKey(row rel.Row) string {
	buf := make([]byte, 0, 16*len(m.tableOrder))
	for _, t := range m.tableOrder {
		for _, c := range m.keyCols[t] {
			buf = rel.AppendEncoded(buf, row[c])
		}
	}
	return string(buf)
}

// pattern computes the non-null table bitmask of an output row (which
// normal-form term the row belongs to).
func (m *Materialized) pattern(row rel.Row) uint32 {
	var p uint32
	for _, t := range m.tableOrder {
		if !row[m.witnessCol[t]].IsNull() {
			p |= 1 << m.tableBit[t]
		}
	}
	return p
}

// patternOf returns the bitmask of a table set.
func (m *Materialized) patternOf(tables []string) uint32 {
	var p uint32
	for _, t := range tables {
		p |= 1 << m.tableBit[t]
	}
	return p
}

// TermCardinality returns the number of view rows whose source-table set is
// exactly the given set (the per-term cardinalities of the paper's
// Table 1).
func (m *Materialized) TermCardinality(tables []string) int {
	return m.patternCount[m.patternOf(tables)]
}

// insertRow adds one projected row. It reports an error on key collision,
// which would indicate a maintenance bug or an out-of-contract view.
func (m *Materialized) insertRow(row rel.Row) error {
	k := m.viewKey(row)
	if _, dup := m.rows[k]; dup {
		return fmt.Errorf("view %s: duplicate view key for row %s", m.def.Name, row)
	}
	m.rows[k] = row
	m.patternCount[m.pattern(row)]++
	if m.dirtyKeys != nil {
		m.dirtyKeys[k] = struct{}{}
	}
	if m.perTable != nil {
		for _, t := range m.tableOrder {
			if row[m.witnessCol[t]].IsNull() {
				continue
			}
			tk := rel.EncodeRowCols(row, m.keyCols[t])
			set := m.perTable[t][tk]
			if set == nil {
				set = make(map[string]struct{}, 1)
				m.perTable[t][tk] = set
			}
			set[k] = struct{}{}
		}
	}
	return nil
}

// deleteKey removes the row with the given view key, returning it.
func (m *Materialized) deleteKey(k string) (rel.Row, bool) {
	row, ok := m.rows[k]
	if !ok {
		return nil, false
	}
	delete(m.rows, k)
	m.patternCount[m.pattern(row)]--
	if m.dirtyKeys != nil {
		m.dirtyKeys[k] = struct{}{}
	}
	if m.perTable != nil {
		for _, t := range m.tableOrder {
			if row[m.witnessCol[t]].IsNull() {
				continue
			}
			tk := rel.EncodeRowCols(row, m.keyCols[t])
			if set := m.perTable[t][tk]; set != nil {
				delete(set, k)
				if len(set) == 0 {
					delete(m.perTable[t], tk)
				}
			}
		}
	}
	return row, true
}

// containsTuple reports whether any view row carries exactly the given
// base-table tuples (non-null and key-equal on every table of the set).
// rowVals supplies, per table, the encoded key of the wanted tuple and the
// raw key values. Used by the deletion-case secondary delta: a candidate is
// a new orphan iff no remaining view row contains it.
func (m *Materialized) containsTuple(tables []string, encKeys map[string]string) bool {
	if m.perTable != nil {
		// An empty probe set for any table proves no view row contains the
		// tuple; otherwise probe the genuinely least-populated index. (A nil
		// first set must short-circuit, not be "improved upon" by a larger
		// one — replacing a provably-empty probe with a populated one turned
		// a negative lookup into a scan of the biggest bucket.)
		bestSet := m.perTable[tables[0]][encKeys[tables[0]]]
		if len(bestSet) == 0 {
			return false
		}
		for _, t := range tables[1:] {
			s := m.perTable[t][encKeys[t]]
			if len(s) == 0 {
				return false
			}
			if len(s) < len(bestSet) {
				bestSet = s
			}
		}
		for vk := range bestSet {
			if m.rowMatches(m.rows[vk], tables, encKeys) {
				return true
			}
		}
		return false
	}
	for _, row := range m.rows {
		if m.rowMatches(row, tables, encKeys) {
			return true
		}
	}
	return false
}

func (m *Materialized) rowMatches(row rel.Row, tables []string, encKeys map[string]string) bool {
	for _, t := range tables {
		if row[m.witnessCol[t]].IsNull() {
			return false
		}
		if rel.EncodeRowCols(row, m.keyCols[t]) != encKeys[t] {
			return false
		}
	}
	return true
}

// orphanKeyFor builds the view key of the orphan row of a term: the term
// tables' key values taken from an output-projected row, NULL elsewhere.
func (m *Materialized) orphanKeyFor(row rel.Row, termTables map[string]bool) string {
	buf := make([]byte, 0, 16*len(m.tableOrder))
	for _, t := range m.tableOrder {
		for _, c := range m.keyCols[t] {
			if termTables[t] {
				buf = rel.AppendEncoded(buf, row[c])
			} else {
				buf = rel.AppendEncoded(buf, rel.Null)
			}
		}
	}
	return string(buf)
}

// Materialize recomputes the view contents from scratch by evaluating the
// definition expression. The stored contents are replaced only on success:
// the rebuild happens in a staging copy that is swapped in atomically, so a
// mid-build failure (e.g. a duplicate view key from an out-of-contract
// definition) leaves the current contents intact.
func (m *Materialized) Materialize() error {
	ctx := &exec.Context{Catalog: m.def.cat}
	res, err := exec.Eval(ctx, m.def.Expr)
	if err != nil {
		return err
	}
	staged := *m
	staged.rows = make(map[string]rel.Row, len(res.Rows))
	staged.patternCount = make(map[uint32]int)
	if m.perTable != nil {
		staged.perTable = make(map[string]map[string]map[string]struct{}, len(m.tableOrder))
		for _, t := range m.tableOrder {
			staged.perTable[t] = make(map[string]map[string]struct{})
		}
	}
	proj, err := projectToOutput(res, m.def, m.schema)
	if err != nil {
		return err
	}
	for _, row := range proj {
		if err := staged.insertRow(row); err != nil {
			return err
		}
	}
	m.rows, m.patternCount, m.perTable = staged.rows, staged.patternCount, staged.perTable
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
		pr := make(rel.Row, len(mapping))
		for j, src := range mapping {
			if src >= 0 {
				pr[j] = row[src]
			}
		}
		dst = append(dst, pr)
	}
	return dst
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
