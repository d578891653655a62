package view

import (
	"maps"
	"math/bits"
	"slices"

	"ojv/internal/rel"
)

// View epochs: immutable snapshots of a stored view, sealed when a reader
// pins them and read without locks (rel/epoch.go has the scheme).
//
// A family walks each committing changeset's log into its open
// transactions, and a member's pin seals them. Every Member owns one atomic
// pointer to its current epoch. While a maintenance run stages mutations
// (and possibly rolls them back), nothing reaches the transactions — a
// rolled-back changeset is never walked — so concurrent readers never
// observe torn or mid-flush state. Nothing reads a view snapshot by key —
// readers scan it, as the paper's readers scan the view through its
// clustered index — so the family's epoch is a persistent vector indexed by
// store handle (rel/rowvec.go), of a view's rows or an aggregation view's
// state rows alike, and the committing changeset's log, a list of handles,
// names exactly the slots to set or clear. The invariant is open[h] == the
// row committed in store slot h, for every h; it holds because a rollback
// leaves every live row at its handle and a deleted row's slot is not
// reused before its delete is walked (rel/slab.go). A state row is never
// written once stored (agg.go), so an epoch may share it with the store.
//
// While some member is filtered (family.go), the same walk keeps a second
// transaction beside the rows: the membership word of every stored row, over
// the same handles and so of the same shape, sealed together with the rows.
// A filtered member's epoch is the two vectors of a seal and its bit, and
// its Rows walks them leaf by leaf in lockstep, keeping the rows whose word
// carries the bit. An unfiltered member's epoch is the rows vector alone, as
// a view's always was.
//
// The walk and the seal meet under the family's sealMu and nowhere else: the
// walk holds it for one log, never across a flush's ΔV^D, so a pin never
// waits behind maintenance. A seal reads only what the walk maintains under
// the mutex — the open transactions, the committed term counters (the
// family's for its unfiltered members, each filtered member's own, adjusted
// by the records that carry its bit), and every member's sequence number
// and dirty mark — and never the store, which a flush may be staging into.
// A commit marks dirty, and bumps the sequence number of, every member it
// concerns: every unfiltered member, and each filtered member some record
// carries the bit of. A member's pin finds the mark, seals the family's
// transactions (O(1), allocating nothing) and stores the member's epoch at
// that number. The epoch shares the counters copy on write (counters): the
// walk clones a set the first time it changes it after a seal, so a set is
// cloned once per seal, not once per commit, and by the writer, not by the
// reader that seals. An unmarked pin is two atomic loads, the mark and the
// epoch, and takes no lock. Equal
// sequence numbers of one view hold equal rows.
//
// Epochs are per view. A reader pinning snapshots of two views (or a view
// and a base table) between two commits may see one side's new epoch and
// the other's old one; within a single snapshot the state is always a
// committed epoch, and per-view sequence numbers are monotonic.

// viewEpoch is one sealed epoch of a member: the family's rows by handle as
// of a seal, the family's membership words of the same seal and the
// member's bit when the member is filtered (nil words: every row is the
// member's), and the member's row count and per-term pattern counters that
// back Len and TermCardinality, nil counters for an aggregation view. The
// counters are one entry per normal-form term; a map is never written once
// an epoch holds it, so the unfiltered members of one seal share one.
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

// Epoch returns the snapshot's per-view sequence number: the number of the
// last commit that concerned the view. Successive epochs of one view carry
// strictly increasing numbers, and equal numbers hold equal rows.
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
// enabled (direct Maintainer users pay only this nil check and an
// uncontended lock per commit).
func (m *Maintainer) Snapshot() *Snapshot { return m.members[0].Snapshot() }

// Snapshot returns the member's current committed epoch, sealing it first
// when a commit concerned the member since its last seal, or nil before
// EnableSnapshots.
func (mem *Member) Snapshot() *Snapshot {
	e := mem.current()
	if e == nil {
		return nil
	}
	mem.pins.Add(1)
	return &Snapshot{mem: mem, ep: e}
}

// current returns the member's epoch as of the last commit that concerned
// it, sealing one when the member is dirty. The mark is read before the
// epoch: a seal stores the epoch before it clears the mark, so an unmarked
// member's epoch is current.
func (mem *Member) current() *viewEpoch {
	if mem.dirty.Load() {
		mem.m.sealMu.Lock()
		defer mem.m.sealMu.Unlock()
		if mem.dirty.Load() && mem.ep.Load() != nil {
			mem.store(mem.m.seal(mem))
		}
	}
	return mem.ep.Load()
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
	m := mem.m
	m.sealMu.Lock()
	defer m.sealMu.Unlock()
	if m.epochRows == nil {
		m.resnap()
	}
	mem.publishFull()
}

// resnap rebuilds the family's committed epoch state from the store: the
// vectors, from every linked row and, while a member is filtered, its
// membership word, with no transaction open; the family's term counters;
// and every filtered member's row count and term counters. Filling in
// handle order allocates the leaves in the order a scan reads them and
// stays in one leaf for vecWidth sets. Used when snapshots are first
// enabled, after Materialize, which replaces the store wholesale, and after
// a member joins, which may insert rows and rewrites the words; members keep
// the epochs they have, which share no node with the new vectors. The
// caller holds sealMu and whatever lock serializes maintenance, so the store
// is all committed.
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
	var patterns map[uint32]int
	if m.mv != nil {
		patterns = make(map[uint32]int)
	}
	deltas := m.termDeltas[:0]
	for _, h := range handles {
		row := s.slab.At(h).Row
		rows.Set(h, row)
		if patterns == nil {
			continue
		}
		p := m.mv.pattern(row)
		patterns[p]++
		if words != nil {
			words.Set(h, s.bits[h])
			if s.bits[h] != 0 {
				deltas = addTermDelta(deltas, p, s.bits[h], 1)
			}
		}
	}
	m.epochRows, m.epochWords, m.openRows, m.openWords = rows.Publish(), nil, nil, nil
	if words != nil {
		m.epochWords = words.Publish()
	}
	m.patterns, m.termDeltas = counters{m: patterns}, deltas
	for _, mem := range m.members {
		if mem.filtered {
			mem.count, mem.patterns = 0, counters{m: make(map[uint32]int)}
			mem.addTerms(deltas)
		}
	}
}

// publishFull publishes the member's epoch as a commit of its own, over the
// family's committed state. Caller holds sealMu.
func (mem *Member) publishFull() {
	mem.epochSeq++
	mem.store(mem.m.seal(mem))
}

// termDelta is what one commit changes in the filtered members' term
// counters for one term pattern: n[i] is the change for the member in
// membership slot i.
type termDelta struct {
	pattern uint32
	n       [maxMembers]int
}

// walkLog walks a committing changeset's log into the family's open
// transactions, before the changeset releases the slots of the rows it
// deleted. The log is walked once, in log order, into the row transaction
// and, while a member is filtered, the word transaction: every handle the
// log names is set to the row and word staged there or cleared, so a row
// inserted and deleted again in one run ends up clear. Every mutation of
// the store outside Materialize and a member's joining runs through a
// changeset and every changeset commits through here, so the log is the
// complete list of slots the vectors may differ in. The same walk keeps the
// family's term counters and sums, per term pattern, what each filtered
// member's counters change by. Then every member the log concerns is marked
// dirty at the next sequence number, for its next pin to seal; a filtered
// member no record carries the bit of is not. No-op until EnableSnapshots.
// Callers must hold whatever lock serializes maintenance; the seal mutex is
// released on every path, a panic included.
func (m *Maintainer) walkLog(cs *Changeset) {
	if len(cs.rows) == 0 {
		return
	}
	m.sealMu.Lock()
	defer m.sealMu.Unlock()
	if m.epochRows == nil {
		return
	}
	if m.openRows == nil {
		m.openRows = m.epochRows.Edit()
		if m.epochWords != nil {
			m.openWords = m.epochWords.Edit()
		}
	}
	s := m.st.stored()
	rows, words := m.openRows, m.openWords
	m.termDeltas = m.termDeltas[:0]
	var touched uint64
	// count moves the counters by one row and its word; they always count
	// what the transactions hold, whatever the store says.
	count := func(row rel.Row, w uint64, sign int) {
		if m.mv == nil {
			return
		}
		p := m.mv.pattern(row)
		m.patterns.add(p, sign)
		if w != 0 {
			touched |= w
			m.termDeltas = addTermDelta(m.termDeltas, p, w, sign)
		}
	}
	for _, r := range cs.rows {
		var row, old rel.Row
		var w, oldW uint64
		var had bool
		if r.kind == undoViewInsert {
			row = s.slab.At(r.h).Row
			old, had = rows.Set(r.h, row)
			if words != nil {
				w = s.bits[r.h]
				oldW, _ = words.Set(r.h, w)
			}
		} else {
			old, had = rows.Clear(r.h)
			if words != nil {
				oldW, _ = words.Clear(r.h)
			}
		}
		if had {
			count(old, oldW, -1)
		}
		if r.kind == undoViewInsert {
			count(row, w, 1)
		}
	}
	deltas := m.termDeltas
	for _, mem := range m.members {
		if mem.filtered {
			if touched&mem.bit() == 0 {
				continue
			}
			mem.addTerms(deltas)
		}
		mem.epochSeq++
		mem.dirty.Store(true)
	}
}

// addTerms adds the member's share of deltas to its committed counters.
func (mem *Member) addTerms(deltas []termDelta) {
	for i := range deltas {
		if n := deltas[i].n[mem.slot]; n != 0 {
			mem.patterns.add(deltas[i].pattern, n)
			mem.count += n
		}
	}
}

// seal publishes the family's open transactions, if any, and returns the
// member's epoch over the family's sealed vectors at the member's sequence
// number, from committed state only: the counters the walk keeps, which the
// epoch shares. It allocates the epoch and nothing else. Caller holds
// sealMu.
func (m *Maintainer) seal(mem *Member) *viewEpoch {
	if m.openRows != nil {
		m.epochRows, m.openRows = m.openRows.Publish(), nil
		if m.openWords != nil {
			m.epochWords, m.openWords = m.openWords.Publish(), nil
		}
	}
	ep := &viewEpoch{seq: mem.epochSeq, rows: m.epochRows, count: m.epochRows.Len()}
	if mem.filtered {
		ep.words, ep.bit, ep.count, ep.patterns = m.epochWords, mem.bit(), mem.count, mem.patterns.seal()
	} else {
		ep.patterns = m.patterns.seal()
	}
	return ep
}

// counters is a set of committed term counters that epochs share copy on
// write: a seal hands the map itself to the epoch and marks it shared, and
// the walk's next change clones it first. So a set is cloned at most once
// per seal, by the writer, never by the reader that seals.
type counters struct {
	m      map[uint32]int
	shared bool
}

// add moves the counter of pattern by n.
func (c *counters) add(pattern uint32, n int) {
	if c.shared {
		c.m, c.shared = maps.Clone(c.m), false
	}
	c.m[pattern] += n
}

// seal returns the map for an epoch to hold; no one writes it again.
func (c *counters) seal() map[uint32]int {
	c.shared = true
	return c.m
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

// store publishes ep as the member's current epoch. Caller holds sealMu.
func (mem *Member) store(ep *viewEpoch) {
	mem.ep.Store(ep)
	mem.dirty.Store(false)
	mem.opts.Metrics.Add("view.epoch.published", 1)
}
