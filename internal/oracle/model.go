package oracle

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"ojv/internal/fixture"
	"ojv/internal/rel"
)

// model is the reference the database is checked against: every base table
// as a map from key to row, the constraints that decide whether a statement
// is accepted, and an open batch as the net per-key entries its queue holds.
// It knows nothing of views; naive.go evaluates them over its rows.
type model struct {
	tables []*mtable // creation order, which puts every parent first
	next   int64     // the next fresh key
	batch  *mbatch   // nil while no batch is open
}

type mtable struct {
	fixture.DrawnTable // FK tracks whether the foreign key is declared
	parent             *mtable
	rows               map[int64]rel.Row // the committed rows
}

// entry is the net pending mutation of one key, in the queue's coalescing
// algebra (internal/pipeline).
type entry struct {
	kind entryKind
	row  rel.Row // the staged row of an insert or modify
}

type entryKind uint8

const (
	entryInsert entryKind = iota
	entryDelete
	entryModify
)

type mbatch struct {
	entries    map[*mtable]map[int64]entry
	statements int
	// touched tables have a delta in the queue since its last reset; a Load
	// makes them stale, and the queue refuses to stage more against them.
	touched, stale map[*mtable]bool
}

func newBatch() *mbatch {
	return &mbatch{entries: map[*mtable]map[int64]entry{}, touched: map[*mtable]bool{}, stale: map[*mtable]bool{}}
}

// stmt is one resolved statement: Insert carries rows, Delete keys, Update
// one key and its new row.
type stmt struct {
	kind Kind
	t    *mtable
	rows []rel.Row
	keys []int64
}

// noKey is a key no row ever has: missing keys and dangling references.
const noKey = -1

func newModel(tables []fixture.DrawnTable, committed func(name string) []rel.Row) *model {
	m := &model{next: 1000}
	for _, d := range tables {
		t := &mtable{DrawnTable: d, rows: map[int64]rel.Row{}}
		if d.Parent != "" {
			t.parent = m.table(d.Parent)
		}
		for _, r := range committed(d.Name) {
			t.rows[r[0].AsInt()] = r
		}
		m.tables = append(m.tables, t)
	}
	return m
}

// table finds a table by name: A, B, … in creation order.
func (m *model) table(name string) *mtable { return m.tables[name[0]-'A'] }

// keys returns, sorted, the keys of a table's rows as a statement sees
// them: the committed rows, under the batch's entries when it stages.
func (m *model) keys(t *mtable, staged bool) []int64 {
	var keys []int64
	for k := range t.rows {
		if m.get(t, k, staged) != nil {
			keys = append(keys, k)
		}
	}
	if staged {
		for k, e := range m.batch.entries[t] {
			if e.kind != entryDelete && t.rows[k] == nil {
				keys = append(keys, k)
			}
		}
	}
	slices.Sort(keys)
	return keys
}

// resolve turns a statement op into statements over the state they will
// see: keys are drawn from the visible rows, and a few are deliberately
// bad so the rejection rules get exercised too.
func (m *model) resolve(op Op, t *mtable, staged bool, rng *rand.Rand) []stmt {
	keys := m.keys(t, staged)
	row := func(t *mtable, key int64) rel.Row {
		// A dangling reference tests a declared key; an undeclared one
		// mostly resolves, so a later AddForeignKey can succeed. A third go
		// to the newest parent, likely staged in the same batch window.
		parent := int64(noKey)
		if t.parent != nil && (rng.Intn(12) > 0 || !t.FK) {
			if pk := m.keys(t.parent, staged); len(pk) > 0 {
				parent = pk[len(pk)-1]
				if rng.Intn(3) > 0 {
					parent = pk[rng.Intn(len(pk))]
				}
			}
		}
		r := t.Row(rng, key, parent)
		if t.parent != nil && rng.Intn(40) == 0 {
			r[3] = rel.Null
		}
		return r
	}
	fresh := func() int64 { m.next++; return m.next - 1 }
	switch op.Kind {
	case Insert:
		st := stmt{kind: Insert, t: t}
		for i := 0; i <= int(op.N&3); i++ {
			k := fresh()
			if rng.Intn(10) == 0 && len(keys) > 0 {
				k = keys[rng.Intn(len(keys))]
			}
			st.rows = append(st.rows, row(t, k))
		}
		return []stmt{st}
	case Delete:
		st := stmt{kind: Delete, t: t}
		perm := rng.Perm(len(keys))[:min(len(keys), 1+int(op.N%3))]
		if len(keys) > 0 && rng.Intn(3) == 0 && !slices.Contains(perm, len(keys)-1) {
			perm[0] = len(keys) - 1 // the newest row, which the newest references point at
		}
		for _, i := range perm {
			st.keys = append(st.keys, keys[i])
		}
		switch {
		case len(st.keys) == 0:
			return nil
		case rng.Intn(10) == 0:
			st.keys[0] = noKey
		case rng.Intn(16) == 0:
			st.keys = append(st.keys, st.keys[0])
		}
		return []stmt{st}
	case Update:
		k := int64(noKey)
		if len(keys) > 0 && rng.Intn(10) > 0 {
			k = keys[rng.Intn(len(keys))]
		}
		return []stmt{{kind: Update, t: t, keys: []int64{k}, rows: []rel.Row{row(t, k)}}}
	case Truncate:
		if len(keys) == 0 {
			return nil
		}
		return []stmt{{kind: Delete, t: t, keys: keys}}
	case OrphanAll:
		// Every row on the hot join value: the rows of the Hot tables that
		// joined them on j are orphaned all at once.
		st := stmt{kind: Delete, t: t}
		for _, k := range keys {
			if j := m.get(t, k, staged)[1]; !j.IsNull() && j.AsInt() == fixture.HotValue {
				st.keys = append(st.keys, k)
			}
		}
		if len(st.keys) == 0 {
			return nil
		}
		return []stmt{st}
	case Churn:
		k := fresh()
		return []stmt{
			{kind: Insert, t: t, rows: []rel.Row{row(t, k)}},
			{kind: Update, t: t, keys: []int64{k}, rows: []rel.Row{row(t, k)}},
			{kind: Delete, t: t, keys: []int64{k}},
		}
	case Reparent:
		if t.parent == nil || len(keys) == 0 {
			return nil
		}
		p, c := fresh(), row(t, keys[rng.Intn(len(keys))])
		c[3] = rel.Int(p)
		sts := []stmt{
			{kind: Insert, t: t.parent, rows: []rel.Row{row(t.parent, p)}},
			{kind: Update, t: t, keys: []int64{c[0].AsInt()}, rows: []rel.Row{c}},
		}
		if op.N&4 != 0 { // then delete the new parent from under its child
			sts = append(sts, stmt{kind: Delete, t: t.parent, keys: []int64{p}})
		}
		return sts
	}
	return nil
}

// get returns the row with key k as a statement sees it — the committed
// row, under the batch's entry when it stages into the batch — or nil.
func (m *model) get(t *mtable, k int64, staged bool) rel.Row {
	if staged {
		if e, ok := m.batch.entries[t][k]; ok {
			return e.row // nil for a pending delete
		}
	}
	return t.rows[k]
}

// referenced reports whether a child row in rowsOf references key k of t
// through a declared foreign key: the RESTRICT rule.
func (m *model) referenced(t *mtable, k int64, rowsOf func(*mtable) map[int64]rel.Row) bool {
	for _, c := range m.tables {
		if c.parent != t || !c.FK {
			continue
		}
		for _, r := range rowsOf(c) {
			if r[3].AsInt() == k {
				return true
			}
		}
	}
	return false
}

// check reports why st is refused, or nil: the catalog's rules — key
// uniqueness and existence, NOT NULL on the key and on a child's f,
// declared foreign keys — against the rows the statement sees. A staged
// delete defers RESTRICT to the flush, as the queue does.
func (m *model) check(st stmt, staged bool) error {
	t, seen := st.t, map[int64]bool{}
	refOK := func(r rel.Row) bool { return !t.FK || m.get(t.parent, r[3].AsInt(), staged) != nil }
	for _, r := range st.rows {
		k := r[0].AsInt()
		switch {
		case r[0].IsNull() || t.parent != nil && r[3].IsNull():
			return fmt.Errorf("NOT NULL violated by %s", r)
		case st.kind == Insert && (seen[k] || m.get(t, k, staged) != nil):
			return fmt.Errorf("duplicate key %d", k)
		case st.kind == Update && m.get(t, k, staged) == nil:
			return fmt.Errorf("no row with key %d", k)
		case !refOK(r):
			return fmt.Errorf("foreign key violated by %s", r)
		}
		seen[k] = true
	}
	for _, k := range st.keys {
		switch {
		case st.kind != Delete:
		case seen[k] || m.get(t, k, staged) == nil:
			return fmt.Errorf("key %d missing or repeated", k)
		case !staged && m.referenced(t, k, func(c *mtable) map[int64]rel.Row { return c.rows }):
			return fmt.Errorf("key %d is referenced", k)
		}
		seen[k] = true
	}
	return nil
}

// apply folds an accepted statement into what it was checked against —
// the committed rows, or the batch's entries by the queue's coalescing
// algebra — and returns the rows a delete removes, as the statement saw
// them.
func (m *model) apply(st stmt, staged bool) []rel.Row {
	t := st.t
	var out []rel.Row
	for _, k := range st.keys {
		if st.kind == Delete {
			out = append(out, m.get(t, k, staged))
		}
	}
	if !staged {
		for _, r := range st.rows {
			t.rows[r[0].AsInt()] = r
		}
		for _, r := range out {
			delete(t.rows, r[0].AsInt())
		}
		return out
	}
	es := m.batch.entries[t]
	if es == nil {
		es = map[int64]entry{}
		m.batch.entries[t] = es
	}
	for _, r := range st.rows {
		k := r[0].AsInt()
		switch e, ok := es[k]; {
		case st.kind == Insert && ok, st.kind == Update && !(ok && e.kind == entryInsert):
			es[k] = entry{kind: entryModify, row: r} // delete ∘ insert, or an update of a committed row
		default:
			es[k] = entry{kind: entryInsert, row: r}
		}
	}
	for _, k := range st.keys {
		switch e, ok := es[k]; {
		case st.kind != Delete:
		case ok && e.kind == entryInsert:
			delete(es, k) // insert ∘ delete annihilate
		default:
			es[k] = entry{kind: entryDelete}
		}
	}
	m.batch.statements++
	return out
}

// stage predicts a statement staged into the open batch and, when the
// queue accepts it, folds it in. A staged statement touches its table's
// delta in the queue even when refused.
func (m *model) stage(st stmt) ([]rel.Row, error) {
	if m.batch.stale[st.t] {
		return nil, fmt.Errorf("table %s was replaced under pending statements", st.t.Name)
	}
	m.batch.touched[st.t] = true
	if err := m.check(st, true); err != nil {
		return nil, err
	}
	return m.apply(st, true), nil
}

// flush predicts a flush of the open batch: the net entries applied in the
// plan's phase order — deletes children first, then inserts parents first,
// then modifies — each step checked against what the steps before it left.
// It returns the rows every delta table ends with and the tables whose
// steps fail; a failed step is skipped, as other components never read it.
func (m *model) flush() (post map[*mtable]map[int64]rel.Row, failed map[*mtable]bool) {
	post, failed = map[*mtable]map[int64]rel.Row{}, map[*mtable]bool{}
	for t, es := range m.batch.entries {
		if len(es) > 0 {
			post[t] = maps.Clone(t.rows)
		}
	}
	current := func(t *mtable) map[int64]rel.Row {
		if p, ok := post[t]; ok {
			return p
		}
		return t.rows
	}
	step := func(t *mtable, kind entryKind) {
		ok, p := true, post[t]
		for k, e := range m.batch.entries[t] {
			if e.kind != kind {
				continue
			}
			if kind == entryDelete {
				ok = ok && p[k] != nil && !m.referenced(t, k, current)
			} else { // an insert needs its key free, a modify its row there
				ok = ok && (p[k] != nil) == (kind == entryModify) && (!t.FK || current(t.parent)[e.row[3].AsInt()] != nil)
			}
		}
		if !ok {
			failed[t] = true
			return
		}
		for k, e := range m.batch.entries[t] {
			switch {
			case e.kind != kind:
			case kind == entryDelete:
				delete(p, k)
			default:
				p[k] = e.row
			}
		}
	}
	for i := len(m.tables) - 1; i >= 0; i-- {
		step(m.tables[i], entryDelete)
	}
	for _, kind := range []entryKind{entryInsert, entryModify} {
		for _, t := range m.tables {
			step(t, kind)
		}
	}
	return post, failed
}

// saved is a Save: the bytes and the model's tables as they were.
type saved struct {
	data []byte
	rows map[*mtable]map[int64]rel.Row
	fks  map[*mtable]bool
}

func (m *model) save(data []byte) *saved {
	s := &saved{data: data, rows: map[*mtable]map[int64]rel.Row{}, fks: map[*mtable]bool{}}
	for _, t := range m.tables {
		s.rows[t], s.fks[t] = maps.Clone(t.rows), t.FK
	}
	return s
}

// load restores a Save. Every table the batch touched is replaced under
// it, so the batch may flush what it holds but stage no more against them.
func (m *model) load(s *saved) {
	for _, t := range m.tables {
		t.rows, t.FK = maps.Clone(s.rows[t]), s.fks[t]
	}
	if m.batch != nil {
		maps.Copy(m.batch.stale, m.batch.touched)
	}
}

// footprint is every table a view's maintenance may read: its own tables
// and the parents their declared foreign keys reference.
func (m *model) footprint(d viewDef) (out []*mtable) {
	for _, name := range d.expr.Tables() {
		if t := m.table(name); t.FK {
			out = append(out, t, t.parent)
		} else {
			out = append(out, t)
		}
	}
	return out
}

// groups partitions the tables into FK groups: the connected components of
// the parent relation, whether declared or not. Statements on two groups
// never read each other's tables.
func (m *model) groups() [][]*mtable {
	var out [][]*mtable
	group := map[*mtable]int{} // parents come first, so a child finds its group
	for _, t := range m.tables {
		g, ok := group[t.parent]
		if !ok {
			g, out = len(out), append(out, nil)
		}
		group[t], out[g] = g, append(out[g], t)
	}
	return out
}
