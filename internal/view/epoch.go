package view

import (
	"maps"
	"slices"

	"ojv/internal/rel"
)

// View epochs: immutable snapshots of a stored view, published at
// changeset commit and read without locks.
//
// Every Member of a family owns one atomic pointer to its current epoch.
// While a maintenance run stages mutations (and possibly rolls them back),
// the pointer still names the last committed epoch, so concurrent readers
// never observe torn or mid-flush state; CommitStaged publishes the next
// epoch of every member in O(delta). Nothing reads a view snapshot by key —
// readers scan it, as the paper's readers scan the view through its
// clustered index — so an epoch is a persistent vector indexed by store
// handle (rel/rowvec.go), of a view's rows or an aggregation view's state
// rows alike, and the committing changeset's log, a list of handles, names
// exactly the slots to set or clear. The invariant is epoch[h] == the row
// committed in store slot h, for every h the member holds; it holds because
// a rollback leaves every live row at its handle and a deleted row's slot
// is not reused before its delete commits (rel/slab.go). A filtered member
// holds the slots whose membership bit it has (family.go), and takes only
// their log records; the rows are the family's, shared. A state row is
// never written once stored (agg.go), so an epoch may share it with the
// store.
//
// Epochs are per view. A reader pinning snapshots of two views (or a view
// and a base table) between two commits may see one side's new epoch and
// the other's old one; within a single snapshot the state is always a
// committed epoch, and per-view sequence numbers are monotonic.

// viewEpoch is one committed epoch of a stored view: the rows by handle
// plus the per-term pattern counters that back TermCardinality, nil for an
// aggregation view. The counters are one entry per normal-form term, so each
// epoch carries its own copy of the map.
type viewEpoch struct {
	seq      uint64
	rows     *rel.RowVec
	patterns map[uint32]int
}

// Snapshot is a pinned, immutable view state. All methods are safe for
// unsynchronized concurrent use; the configuration it borrows from the
// maintainer (definition, schema, which kind of store) is immutable after
// view creation.
type Snapshot struct {
	mem *Member
	ep  *viewEpoch
}

// Epoch returns the snapshot's per-view sequence number; successive
// published epochs of one view carry strictly increasing numbers.
func (s *Snapshot) Epoch() uint64 { return s.ep.seq }

// Schema returns the view's output schema.
func (s *Snapshot) Schema() rel.Schema { return s.mem.Schema() }

// Len returns the number of rows (or groups) as of the epoch.
func (s *Snapshot) Len() int { return s.ep.rows.Len() }

// Rows returns the view contents as of the epoch. The slice is fresh;
// for aggregation views the rows are assembled per call with SQL
// aggregate NULL semantics, sorted like AggMaterialized.Rows.
func (s *Snapshot) Rows() []rel.Row {
	rows := s.ep.rows.AppendRows(make([]rel.Row, 0, s.ep.rows.Len()))
	if a := s.mem.m.agg; a != nil {
		return a.rendered(rows)
	}
	return rows
}

// SortedRows returns Rows sorted by encoded value, for deterministic
// fingerprinting in tests and tools.
func (s *Snapshot) SortedRows() []rel.Row {
	rows := s.Rows()
	rel.SortRows(rows)
	return rows
}

// TermCardinality returns the number of rows whose source-table set is
// exactly the given set, as of the epoch; 0 for aggregation views.
func (s *Snapshot) TermCardinality(tables []string) int {
	return s.ep.patterns[s.mem.def.maskOf(tables)]
}

// Snapshot returns the current committed epoch of the family's first
// member — the view of a family of one — or nil when snapshots were never
// enabled (direct Maintainer users pay only this nil check and a nil check
// per stored-view mutation).
func (m *Maintainer) Snapshot() *Snapshot { return m.members[0].Snapshot() }

// Snapshot returns the member's current committed epoch, or nil before
// EnableSnapshots.
func (mem *Member) Snapshot() *Snapshot {
	e := mem.ep.Load()
	if e == nil {
		return nil
	}
	mem.pins.Add(1)
	return &Snapshot{mem: mem, ep: e}
}

// EnableSnapshots publishes the first epoch of every member, making
// Snapshot non-nil from here on; callers must hold whatever lock serializes
// maintenance.
func (m *Maintainer) EnableSnapshots() {
	for _, mem := range m.members {
		mem.EnableSnapshots()
	}
}

// EnableSnapshots publishes the member's first epoch. The Database facade
// calls it under its write lock when it registers a view.
func (mem *Member) EnableSnapshots() {
	mem.pins = mem.opts.Metrics.Counter("view.epoch.pins")
	mem.publishFull()
}

// publishFull copies the member's stored rows into a fresh epoch. Used at
// enablement and after Materialize, which replaces the store wholesale.
func (mem *Member) publishFull() {
	mem.epochSeq++
	// The live rows are the linked ones: rows, not the slab, which may hold
	// slots an open changeset has unlinked. Filling in handle order allocates
	// the leaves in the order a scan reads them and stays in one leaf for
	// vecWidth sets.
	s := mem.m.st.stored()
	handles := make([]int32, 0, len(s.rows))
	for _, h := range s.rows {
		if mem.has(h) {
			handles = append(handles, h)
		}
	}
	slices.Sort(handles)
	tx := new(rel.RowVec).Edit()
	patterns := maps.Clone(s.patternCount)
	if mem.filtered {
		patterns = make(map[uint32]int)
	}
	for _, h := range handles {
		row := s.slab.At(h).Row
		tx.Set(h, row)
		if mem.filtered {
			patterns[mem.m.mv.pattern(row)]++
		}
	}
	mem.ep.Store(&viewEpoch{seq: mem.epochSeq, rows: tx.Publish(), patterns: patterns})
	mem.countPublish()
}

// publish publishes the member's epoch of a committing changeset, before
// the changeset releases the slots of the rows it deleted: every handle its
// log names that the member holds is set to the row staged there or
// cleared, in log order, so a row inserted and deleted again in one run
// ends up clear. Every mutation of the store outside Materialize and a
// family's widening (which inserts only rows no member held) runs through a
// changeset and every changeset commits through here, so the log is the
// complete list of slots the epoch may differ in. A member no record
// concerns publishes nothing. No-op until EnableSnapshots. Callers must
// hold whatever lock serializes maintenance.
func (mem *Member) publish(cs *Changeset) {
	prev := mem.ep.Load()
	if prev == nil {
		return
	}
	s := mem.m.st.stored()
	var tx *rel.VecTx
	var patterns map[uint32]int
	for _, r := range cs.rows {
		if !mem.has(r.h) {
			continue
		}
		if tx == nil {
			tx = prev.rows.Edit()
			if patterns = maps.Clone(s.patternCount); mem.filtered {
				patterns = maps.Clone(prev.patterns)
			}
		}
		row := s.slab.At(r.h).Row
		if r.kind == undoViewInsert {
			tx.Set(r.h, row)
		} else {
			tx.Set(r.h, nil)
		}
		if mem.filtered {
			if r.kind == undoViewInsert {
				patterns[mem.m.mv.pattern(row)]++
			} else {
				patterns[mem.m.mv.pattern(row)]--
			}
		}
	}
	if tx == nil {
		return
	}
	mem.epochSeq++
	mem.ep.Store(&viewEpoch{seq: mem.epochSeq, rows: tx.Publish(), patterns: patterns})
	mem.countPublish()
}

// countPublish records the epoch metrics for one publish.
func (mem *Member) countPublish() {
	mem.opts.Metrics.Add("view.epoch.published", 1)
	mem.opts.Metrics.Set("view.epoch.seq", int64(mem.epochSeq))
}
