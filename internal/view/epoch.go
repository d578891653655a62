package view

import (
	"maps"
	"math/bits"
	"slices"

	"ojv/internal/rel"
)

// View epochs: immutable snapshots of a stored view, published at
// changeset commit and read without locks.
//
// A family publishes one epoch per commit, and every Member owns one atomic
// pointer to its current view of it. While a maintenance run stages
// mutations (and possibly rolls them back), the pointers still name the last
// committed epoch, so concurrent readers never observe torn or mid-flush
// state; CommitStaged publishes the next one in O(delta). Nothing reads a
// view snapshot by key — readers scan it, as the paper's readers scan the
// view through its clustered index — so the family's epoch is a persistent
// vector indexed by store handle (rel/rowvec.go), of a view's rows or an
// aggregation view's state rows alike, and the committing changeset's log, a
// list of handles, names exactly the slots to set or clear. The invariant is
// epoch[h] == the row committed in store slot h, for every h; it holds
// because a rollback leaves every live row at its handle and a deleted row's
// slot is not reused before its delete commits (rel/slab.go). A state row is
// never written once stored (agg.go), so an epoch may share it with the
// store.
//
// While some member is filtered (family.go), the same walk of the log keeps
// a second vector beside the rows: the membership word of every stored row,
// over the same handles and so of the same shape. A filtered member's epoch
// is the two vectors of the commit that last concerned it and its bit, and
// its Rows walks them leaf by leaf in lockstep, keeping the rows whose word
// carries the bit; its row count and term counters are its own, carried
// from its previous epoch and adjusted by the records that carry its bit.
// An unfiltered member's epoch is the rows vector alone, as a view's always
// was. A reader touches nothing the writer mutates: not the store's words,
// not the Member.
//
// Epochs are per view. A reader pinning snapshots of two views (or a view
// and a base table) between two commits may see one side's new epoch and
// the other's old one; within a single snapshot the state is always a
// committed epoch, and per-view sequence numbers are monotonic.

// viewEpoch is one committed epoch of a member: the family's rows by handle
// as of a commit, the family's membership words of the same commit and the
// member's bit when the member is filtered (nil words: every row is the
// member's), and the member's row count and per-term pattern counters that
// back Len and TermCardinality, nil counters for an aggregation view. The
// counters are one entry per normal-form term; a map is never written once
// an epoch holds it, so the unfiltered members of one commit share one.
type viewEpoch struct {
	seq      uint64
	rows     *rel.RowVec
	words    *rel.Vec[uint64]
	bit      uint64
	count    int
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
func (s *Snapshot) Len() int { return s.ep.count }

// Rows returns the view contents as of the epoch. The slice is fresh;
// for aggregation views the rows are assembled per call with SQL
// aggregate NULL semantics, sorted like AggMaterialized.Rows.
func (s *Snapshot) Rows() []rel.Row {
	rows := make([]rel.Row, 0, s.ep.count)
	if s.ep.words != nil {
		return rel.AppendMarked(s.ep.rows, s.ep.words, s.ep.bit, rows)
	}
	rows = s.ep.rows.Append(rows)
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

// EnableSnapshots publishes the member's first epoch, and the family's
// vectors when it is the family's first member to publish. The Database
// facade calls it under its write lock when it registers a view.
func (mem *Member) EnableSnapshots() {
	mem.pins = mem.opts.Metrics.Counter("view.epoch.pins")
	if mem.m.epochRows == nil {
		mem.m.resnap()
	}
	mem.publishFull()
}

// resnap rebuilds the family's vectors from the store: every linked row and,
// while a member is filtered, its membership word. Filling in handle order
// allocates the leaves in the order a scan reads them and stays in one leaf
// for vecWidth sets. Used when snapshots are first enabled, after
// Materialize, which replaces the store wholesale, and after a member joins,
// which may insert rows and rewrites the words; members keep the epochs they
// have, which share no node with the new vectors.
func (m *Maintainer) resnap() {
	// The live rows are the linked ones: rows, not the slab, which may hold
	// slots an open changeset has unlinked.
	s := m.st.stored()
	handles := make([]int32, 0, len(s.rows))
	for _, h := range s.rows {
		handles = append(handles, h)
	}
	slices.Sort(handles)
	rows := new(rel.RowVec).Edit()
	var words *rel.VecTx[uint64]
	if m.filtering() {
		words = new(rel.Vec[uint64]).Edit()
	}
	for _, h := range handles {
		rows.Set(h, s.slab.At(h).Row)
		if words != nil {
			words.Set(h, s.bits[h])
		}
	}
	m.epochRows, m.epochWords = rows.Publish(), nil
	if words != nil {
		m.epochWords = words.Publish()
	}
}

// publishFull publishes the member's epoch over the family's current
// vectors, counting its rows and terms from the store.
func (mem *Member) publishFull() {
	m := mem.m
	s := m.st.stored()
	ep := &viewEpoch{rows: m.epochRows, count: m.epochRows.Len(), patterns: maps.Clone(s.patternCount)}
	if mem.filtered {
		ep.words, ep.bit, ep.count, ep.patterns = m.epochWords, mem.bit(), 0, make(map[uint32]int)
		for _, h := range s.rows {
			if mem.has(h) {
				ep.count++
				ep.patterns[m.mv.pattern(s.slab.At(h).Row)]++
			}
		}
	}
	mem.store(ep)
}

// termDelta is what one commit changes in the filtered members' term
// counters for one term pattern: n[i] is the change for the member in
// membership slot i.
type termDelta struct {
	pattern uint32
	n       [maxMembers]int
}

// publish publishes a committing changeset's epochs, before the changeset
// releases the slots of the rows it deleted. The family's log is walked
// once, in log order, into the family's row vector and, while a member is
// filtered, its word vector: every handle the log names is set to the row
// and word staged there or cleared, so a row inserted and deleted again in
// one run ends up clear. Every mutation of the store outside Materialize
// and a member's joining runs through a changeset and every changeset
// commits through here, so the log is the complete list of slots the
// vectors may differ in. The same walk sums, per term pattern, what each
// filtered member's counters change by. Then every member the log concerns
// gets an epoch over the two new vectors; a filtered member no record
// carries the bit of publishes nothing. No-op until EnableSnapshots.
// Callers must hold whatever lock serializes maintenance.
func (m *Maintainer) publish(cs *Changeset) {
	if m.epochRows == nil || len(cs.rows) == 0 {
		return
	}
	s := m.st.stored()
	rows := m.epochRows.Edit()
	var words *rel.VecTx[uint64]
	if m.epochWords != nil {
		words = m.epochWords.Edit()
	}
	deltas := m.termDeltas[:0]
	var touched uint64
	for _, r := range cs.rows {
		row := s.slab.At(r.h).Row
		sign := 1
		if r.kind == undoViewInsert {
			rows.Set(r.h, row)
		} else {
			rows.Clear(r.h)
			sign = -1
		}
		if words == nil {
			continue
		}
		w := s.bits[r.h]
		if sign > 0 {
			words.Set(r.h, w)
		} else {
			words.Clear(r.h)
		}
		if w == 0 {
			continue
		}
		touched |= w
		deltas = addTermDelta(deltas, m.mv.pattern(row), w, sign)
	}
	m.epochRows = rows.Publish()
	m.publishCopies = rows.Copied()
	if words != nil {
		m.epochWords = words.Publish()
		m.publishCopies += words.Copied()
	}
	m.termDeltas = deltas
	var shared map[uint32]int
	for _, mem := range m.members {
		prev := mem.ep.Load()
		if prev == nil {
			continue
		}
		if !mem.filtered {
			if shared == nil {
				shared = maps.Clone(s.patternCount)
			}
			mem.store(&viewEpoch{rows: m.epochRows, count: m.epochRows.Len(), patterns: shared})
			continue
		}
		if touched&mem.bit() == 0 {
			continue
		}
		ep := &viewEpoch{rows: m.epochRows, words: m.epochWords, bit: mem.bit(), count: prev.count, patterns: maps.Clone(prev.patterns)}
		for i := range deltas {
			if n := deltas[i].n[mem.slot]; n != 0 {
				ep.patterns[deltas[i].pattern] += n
				ep.count += n
			}
		}
		mem.store(ep)
	}
}

// addTermDelta adds sign to the counter of pattern for every member whose
// bit w carries.
func addTermDelta(deltas []termDelta, pattern uint32, w uint64, sign int) []termDelta {
	i := 0
	for i < len(deltas) && deltas[i].pattern != pattern {
		i++
	}
	if i == len(deltas) {
		deltas = append(deltas, termDelta{pattern: pattern})
	}
	for ; w != 0; w &= w - 1 {
		deltas[i].n[bits.TrailingZeros64(w)] += sign
	}
	return deltas
}

// store publishes ep as the member's next epoch.
func (mem *Member) store(ep *viewEpoch) {
	mem.epochSeq++
	ep.seq = mem.epochSeq
	mem.ep.Store(ep)
	mem.opts.Metrics.Add("view.epoch.published", 1)
}
