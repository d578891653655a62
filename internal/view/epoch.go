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
// as the paper's readers scan the view through its clustered index — so a
// non-aggregated view's epoch is a persistent vector indexed by store handle
// (rel/rowvec.go) and the committing changeset's log, a list of handles, names
// exactly the slots to set or clear. The invariant is epoch[h] == the row
// committed in store slot h, for every h; it holds because a rollback leaves
// every live row at its handle and a deleted row's slot is not reused before
// its delete commits (rel/slab.go). Aggregation groups are read by key and keep
// the persistent trie of rel/epoch.go.
//
// Epochs are per view. A reader pinning snapshots of two views (or a view
// and a base table) between two commits may see one side's new epoch and
// the other's old one; within a single snapshot the state is always a
// committed epoch, and per-view sequence numbers are monotonic.

// mvEpoch is one committed epoch of a non-aggregated view: the rows by
// handle plus the per-term pattern counters that back TermCardinality. The
// counters are one entry per normal-form term, so each epoch carries its
// own copy of the map.
type mvEpoch struct {
	seq      uint64
	rows     *rel.RowVec
	patterns map[uint32]int
}

// aggEpoch is one committed epoch of an aggregation view. Groups are
// cloned at publish time: the live fold mutates group accumulators in
// place, and a published epoch must never alias them.
type aggEpoch struct {
	groups *rel.EpochMap[*aggGroup]
}

// Snapshot is a pinned, immutable view state. All methods are safe for
// unsynchronized concurrent use; the configuration it borrows from the
// stored view (schema, table order, key columns) is immutable after view
// creation.
type Snapshot struct {
	mv  *Materialized
	agg *AggMaterialized
	mve *mvEpoch
	age *aggEpoch
}

// Epoch returns the snapshot's per-view sequence number; successive
// published epochs of one view carry strictly increasing numbers.
func (s *Snapshot) Epoch() uint64 {
	if s.age != nil {
		return s.age.groups.Seq()
	}
	return s.mve.seq
}

// Schema returns the view's output schema.
func (s *Snapshot) Schema() rel.Schema {
	if s.agg != nil {
		return s.agg.schema
	}
	return s.mv.schema
}

// Len returns the number of rows (or groups) as of the epoch.
func (s *Snapshot) Len() int {
	if s.age != nil {
		return s.age.groups.Len()
	}
	return s.mve.rows.Len()
}

// Rows returns the view contents as of the epoch. The slice is fresh;
// for aggregation views the rows are assembled per call with SQL
// aggregate NULL semantics, sorted like AggMaterialized.Rows.
func (s *Snapshot) Rows() []rel.Row {
	if s.age != nil {
		return s.agg.rowsFrom(s.age.groups.Len(), s.age.groups.Range)
	}
	return s.mve.rows.AppendRows(make([]rel.Row, 0, s.mve.rows.Len()))
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
	if s.mve == nil {
		return 0
	}
	return s.mve.patterns[s.mv.patternOf(tables)]
}

// Snapshot returns the current committed epoch, or nil when snapshots
// were never enabled (direct Maintainer users pay only this nil check and
// a nil check per stored-view mutation).
func (m *Maintainer) Snapshot() *Snapshot {
	if m.agg != nil {
		e := m.aggEp.Load()
		if e == nil {
			return nil
		}
		m.pins.Add(1)
		return &Snapshot{agg: m.agg, age: e}
	}
	e := m.mvEp.Load()
	if e == nil {
		return nil
	}
	m.pins.Add(1)
	return &Snapshot{mv: m.mv, mve: e}
}

// EnableSnapshots publishes the first epoch, making Snapshot non-nil from
// here on (and switches on dirty-group tracking in an aggregation view).
// The Database facade calls it under its write lock when it registers a
// view; callers must hold whatever lock serializes maintenance.
func (m *Maintainer) EnableSnapshots() {
	m.pins = m.opts.Metrics.Counter("view.epoch.pins")
	m.publishFull()
}

// publishFull copies the stored view into a fresh epoch. Used at
// enablement and after Materialize, which replaces the store wholesale.
func (m *Maintainer) publishFull() {
	m.epochSeq++
	if m.agg != nil {
		a := m.agg
		a.dirtyGroups = make(map[string]struct{})
		m.aggEp.Store(&aggEpoch{groups: rel.NewFullEpoch(m.epochSeq, a.groups, (*aggGroup).clone)})
	} else {
		// The live rows are the linked ones: rows, not the slab, which may
		// hold slots an open changeset has unlinked. Filling in handle order
		// allocates the leaves in the order a scan reads them and stays in
		// one leaf for vecWidth sets.
		mv := m.mv
		handles := make([]int32, 0, len(mv.rows))
		for _, h := range mv.rows {
			handles = append(handles, h)
		}
		slices.Sort(handles)
		tx := new(rel.RowVec).Edit()
		for _, h := range handles {
			tx.Set(h, mv.slab.At(h).Row)
		}
		m.mvEp.Store(&mvEpoch{seq: m.epochSeq, rows: tx.Publish(), patterns: maps.Clone(mv.patternCount)})
	}
	m.countPublish()
}

// publishEpoch publishes the epoch of a committing changeset, before the
// changeset releases the slots of the rows it deleted: every handle its log
// names is set to the row staged there or cleared, in log order, so a row
// inserted and deleted again in one run ends up clear. Every view-row
// mutation outside Materialize runs through a changeset and every changeset
// commits through here, so the log is the complete list of slots the epoch
// may differ in; aggregation groups, folded in place, keep their dirty set.
// No-op until EnableSnapshots. Callers must hold whatever lock serializes
// maintenance.
func (m *Maintainer) publishEpoch(cs *Changeset) {
	if m.agg != nil {
		prev := m.aggEp.Load()
		if prev == nil {
			return
		}
		a := m.agg
		if len(a.dirtyGroups) == 0 {
			return
		}
		m.epochSeq++
		groups := rel.PublishEpoch(prev.groups, m.epochSeq, a.dirtyGroups, func(k string) (*aggGroup, bool) {
			g, ok := a.groups[k]
			return g, ok
		}, (*aggGroup).clone)
		clear(a.dirtyGroups)
		m.aggEp.Store(&aggEpoch{groups: groups})
		m.countPublish()
		return
	}
	prev := m.mvEp.Load()
	if prev == nil || len(cs.rows) == 0 {
		return
	}
	mv := m.mv
	m.epochSeq++
	tx := prev.rows.Edit()
	for _, r := range cs.rows {
		if r.kind == undoViewInsert {
			tx.Set(r.h, mv.slab.At(r.h).Row)
		} else {
			tx.Set(r.h, nil)
		}
	}
	m.mvEp.Store(&mvEpoch{seq: m.epochSeq, rows: tx.Publish(), patterns: maps.Clone(mv.patternCount)})
	m.countPublish()
}

// snapshotsEnabled reports whether EnableSnapshots has run.
func (m *Maintainer) snapshotsEnabled() bool {
	if m.agg != nil {
		return m.aggEp.Load() != nil
	}
	return m.mvEp.Load() != nil
}

// countPublish records the epoch metrics for one publish.
func (m *Maintainer) countPublish() {
	m.opts.Metrics.Add("view.epoch.published", 1)
	m.opts.Metrics.Set("view.epoch.seq", int64(m.epochSeq))
}

// rowsFrom assembles the SQL-visible rows of an aggregation view from any
// group iterator (the live map or a pinned epoch), sorted by encoded row.
func (a *AggMaterialized) rowsFrom(n int, iter func(func(string, *aggGroup) bool)) []rel.Row {
	spec := a.def.Agg
	out := make([]rel.Row, 0, n)
	iter(func(_ string, g *aggGroup) bool {
		row := make(rel.Row, 0, len(a.schema))
		row = append(row, g.key...)
		for i, ag := range spec.Aggs {
			row = append(row, g.aggValue(ag, i))
		}
		out = append(out, row)
		return true
	})
	rel.SortRows(out)
	return out
}
