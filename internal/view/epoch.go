package view

import (
	"maps"
	"slices"

	"ojv/internal/rel"
)

// View epochs: immutable snapshots of a stored view, published at
// changeset commit and read without locks.
//
// The Maintainer owns one atomic pointer to the current epoch. While a
// maintenance run stages mutations (and possibly rolls them back), the
// pointer still names the last committed epoch, so concurrent readers
// never observe torn or mid-flush state; CommitStaged publishes the next
// epoch in O(delta). Nothing reads a view snapshot by key — readers scan it,
// as the paper's readers scan the view through its clustered index — so an
// epoch is a persistent vector indexed by store handle (rel/rowvec.go), of a
// view's rows or an aggregation view's state rows alike, and the committing
// changeset's log, a list of handles, names exactly the slots to set or
// clear. The invariant is epoch[h] == the row committed in store slot h, for
// every h; it holds because a rollback leaves every live row at its handle
// and a deleted row's slot is not reused before its delete commits
// (rel/slab.go). A state row is never written once stored (agg.go), so an
// epoch may share it with the store.
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
	m  *Maintainer
	ep *viewEpoch
}

// Epoch returns the snapshot's per-view sequence number; successive
// published epochs of one view carry strictly increasing numbers.
func (s *Snapshot) Epoch() uint64 { return s.ep.seq }

// Schema returns the view's output schema.
func (s *Snapshot) Schema() rel.Schema {
	if s.m.agg != nil {
		return s.m.agg.schema
	}
	return s.m.mv.schema
}

// Len returns the number of rows (or groups) as of the epoch.
func (s *Snapshot) Len() int { return s.ep.rows.Len() }

// Rows returns the view contents as of the epoch. The slice is fresh;
// for aggregation views the rows are assembled per call with SQL
// aggregate NULL semantics, sorted like AggMaterialized.Rows.
func (s *Snapshot) Rows() []rel.Row {
	rows := s.ep.rows.AppendRows(make([]rel.Row, 0, s.ep.rows.Len()))
	if s.m.agg != nil {
		return s.m.agg.rendered(rows)
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
	return s.ep.patterns[s.m.def.maskOf(tables)]
}

// Snapshot returns the current committed epoch, or nil when snapshots
// were never enabled (direct Maintainer users pay only this nil check and
// a nil check per stored-view mutation).
func (m *Maintainer) Snapshot() *Snapshot {
	e := m.ep.Load()
	if e == nil {
		return nil
	}
	m.pins.Add(1)
	return &Snapshot{m: m, ep: e}
}

// EnableSnapshots publishes the first epoch, making Snapshot non-nil from
// here on. The Database facade calls it under its write lock when it
// registers a view; callers must hold whatever lock serializes maintenance.
func (m *Maintainer) EnableSnapshots() {
	m.pins = m.opts.Metrics.Counter("view.epoch.pins")
	m.publishFull()
}

// publishFull copies the stored view into a fresh epoch. Used at
// enablement and after Materialize, which replaces the store wholesale.
func (m *Maintainer) publishFull() {
	m.epochSeq++
	// The live rows are the linked ones: rows, not the slab, which may hold
	// slots an open changeset has unlinked. Filling in handle order allocates
	// the leaves in the order a scan reads them and stays in one leaf for
	// vecWidth sets.
	s := m.st.stored()
	handles := make([]int32, 0, len(s.rows))
	for _, h := range s.rows {
		handles = append(handles, h)
	}
	slices.Sort(handles)
	tx := new(rel.RowVec).Edit()
	for _, h := range handles {
		tx.Set(h, s.slab.At(h).Row)
	}
	m.ep.Store(&viewEpoch{seq: m.epochSeq, rows: tx.Publish(), patterns: maps.Clone(s.patternCount)})
	m.countPublish()
}

// publishEpoch publishes the epoch of a committing changeset, before the
// changeset releases the slots of the rows it deleted: every handle its log
// names is set to the row staged there or cleared, in log order, so a row
// inserted and deleted again in one run ends up clear. Every mutation of the
// store outside Materialize runs through a changeset and every changeset
// commits through here, so the log is the complete list of slots the epoch
// may differ in. No-op until EnableSnapshots. Callers must hold whatever lock
// serializes maintenance.
func (m *Maintainer) publishEpoch(cs *Changeset) {
	prev := m.ep.Load()
	if prev == nil || len(cs.rows) == 0 {
		return
	}
	s := m.st.stored()
	m.epochSeq++
	tx := prev.rows.Edit()
	for _, r := range cs.rows {
		if r.kind == undoViewInsert {
			tx.Set(r.h, s.slab.At(r.h).Row)
		} else {
			tx.Set(r.h, nil)
		}
	}
	m.ep.Store(&viewEpoch{seq: m.epochSeq, rows: tx.Publish(), patterns: maps.Clone(s.patternCount)})
	m.countPublish()
}

// countPublish records the epoch metrics for one publish.
func (m *Maintainer) countPublish() {
	m.opts.Metrics.Add("view.epoch.published", 1)
	m.opts.Metrics.Set("view.epoch.seq", int64(m.epochSeq))
}
