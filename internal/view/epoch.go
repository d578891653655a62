package view

import (
	"maps"
	"math/bits"

	"ojv/internal/rel"
)

// View epochs: immutable snapshots of a stored view, sealed when a reader
// pins them and read without locks (rel/epoch.go has the scheme).
//
// The family's rows live in one rel.Store, and the Store's commit walk and
// seal are the family's (rel/store.go): a commit walks the changeset's log
// into the open transaction of the family's rows vector, indexed by store
// handle, of a view's rows or an aggregation view's state rows alike, and
// releases the slots of the rows it deleted; a pin seals the transaction.
// What the family adds rides on the walk, record by record (walkRecord),
// and on the seal, under the Store's seal mutex: the membership words, the
// term counters, and per-member epochs. While a maintenance run stages
// mutations (and possibly rolls them back), nothing reaches the
// transactions — a rolled-back changeset is never walked — so concurrent
// readers never observe torn or mid-flush state. Nothing reads a view
// snapshot by key: readers scan it, as the paper's readers scan the view
// through its clustered index. A state row is never written once stored
// (agg.go), so an epoch may share it with the store.
//
// While some member is filtered (family.go), the walk keeps a second
// transaction beside the rows: the membership word of every stored row, over
// the same handles and so of the same shape, sealed together with the rows.
// A filtered member's epoch is the two vectors of a seal and its bit, and
// its Rows walks them leaf by leaf in lockstep, keeping the rows whose word
// carries the bit. An unfiltered member's epoch is the rows vector alone, as
// a view's always was.
//
// The walk and the seal meet under the seal mutex and nowhere else: the
// walk holds it for one log, never across a flush's ΔV^D, so a pin never
// waits behind maintenance. A seal reads only what the walk maintains under
// the mutex — the open transactions, the committed term counters (the
// family's for its unfiltered members, each filtered member's own, adjusted
// by the records that carry its bit), and every member's sequence number
// and dirty mark — and never the store, which a flush may be staging into.
// Every Member owns one atomic pointer to its current epoch, its own dirty
// mark and its own sequence number. A commit marks dirty, and bumps the
// number of, every member it concerns: every unfiltered member, and each
// filtered member some record carries the bit of. A member's pin finds the
// mark, seals the family's transactions (O(1), allocating nothing) and
// stores the member's epoch at that number. The epoch shares the counters
// copy on write (counters): the walk clones a set the first time it changes
// it after a seal, so a set is cloned once per seal, not once per commit,
// and by the writer, not by the reader that seals. An unmarked pin is two
// atomic loads, the mark and the epoch, and takes no lock. Equal sequence
// numbers of one view hold equal rows.
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
		mem.m.st.Locked(func() {
			if mem.dirty.Load() && mem.ep.Load() != nil {
				if ep := mem.m.seal(mem); ep != nil {
					mem.store(ep)
				}
			}
		})
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
	m.st.Locked(func() {
		if m.st.Sealed() == nil {
			m.resnap()
		}
		mem.publishFull()
	})
}

// resnap rebuilds the family's committed epoch state from the store: the
// rows vector (rel.Store.Version) and, while a member is filtered, the
// words vector, with no transaction open; the family's term counters; and
// every filtered member's row count and term counters. Every row is walked
// as a commit walks an insert (walkRecord) into empty words and counters.
// Used when snapshots are first enabled, after Materialize, which replaces
// the store wholesale, and after a member joins, which may insert rows and
// rewrites the words; members keep the epochs they have, which share no
// node with the new vectors. The caller holds the seal mutex and whatever
// lock serializes maintenance, so the store is all committed.
func (m *Maintainer) resnap() {
	m.epochWords, m.openWords, m.patterns = nil, nil, counters{}
	if m.filtering() {
		m.epochWords = new(rel.Vec[uint64])
	}
	if m.mv != nil {
		m.patterns.m = make(map[uint32]int)
	}
	m.st.Version(func(h int32, row rel.Row) { m.walkRecord(h, row, nil, false) })
	m.sealWords(nil, 0)
	for _, mem := range m.members {
		if mem.filtered {
			mem.count, mem.patterns = 0, counters{m: make(map[uint32]int)}
			mem.addTerms(m.termDeltas)
		}
	}
	m.termDeltas, m.touched = m.termDeltas[:0], 0
}

// publishFull publishes the member's epoch as a commit of its own, over the
// family's committed state, rebuilding that state first when a walk a panic
// interrupted holds the open transactions (rel.Store.Commit). Caller holds
// the seal mutex and whatever lock serializes maintenance.
func (mem *Member) publishFull() {
	mem.epochSeq++
	if mem.m.seal(mem) == nil {
		mem.m.resnap()
	}
	mem.store(mem.m.seal(mem))
}

// termDelta is what one commit changes in the filtered members' term
// counters for one term pattern: n[i] is the change for the member in
// membership slot i.
type termDelta struct {
	pattern uint32
	n       [maxMembers]int
}

// walkRecord follows the store's commit walk (rel.Store.Commit) record by
// record, under the seal mutex: row is what the walk set at handle h (nil
// for a clear) and old what the slot held. While a member is filtered it
// sets or clears h in the word transaction too, to the word staged there,
// opening the transaction from the sealed words first. It keeps the
// family's term counters and sums, per term pattern, what each filtered
// member's counters change by: the counters always count what the
// transactions hold, whatever the store says. Every mutation of the store
// outside Materialize and a member's joining is logged by a changeset and
// every changeset commits through the walk, so the log is the complete list
// of slots the vectors may differ in. The term patterns, all that can panic
// here, are read before any word or counter moves, so a panic leaves the
// record as the re-walk expects it.
func (m *Maintainer) walkRecord(h int32, row, old rel.Row, had bool) {
	var p, oldP uint32
	if m.mv != nil && had {
		oldP = m.mv.pattern(old)
	}
	if m.mv != nil && row != nil {
		p = m.mv.pattern(row)
	}
	var w, oldW uint64
	if m.epochWords != nil {
		if m.openWords == nil {
			m.openWords = m.epochWords.Edit()
		}
		if row != nil {
			w = m.mv.bits[h]
			oldW, _ = m.openWords.Set(h, w)
		} else {
			oldW, _ = m.openWords.Clear(h)
		}
	}
	if had {
		m.count(oldP, oldW, -1)
	}
	if row != nil {
		m.count(p, w, 1)
	}
}

// count moves the term counters by one row of pattern p and its word w.
func (m *Maintainer) count(p uint32, w uint64, sign int) {
	if m.mv == nil {
		return
	}
	m.patterns.add(p, sign)
	if w != 0 {
		m.touched |= w
		m.termDeltas = addTermDelta(m.termDeltas, p, w, sign)
	}
}

// markMembers ends a commit's walk, under the seal mutex: every member the
// log concerns takes its share of the term deltas and is marked dirty at
// its next sequence number, for its next pin to seal; a filtered member no
// record carries the bit of is not.
func (m *Maintainer) markMembers() {
	for _, mem := range m.members {
		if mem.filtered {
			if m.touched&mem.bit() == 0 {
				continue
			}
			mem.addTerms(m.termDeltas)
		}
		mem.epochSeq++
		mem.dirty.Store(true)
	}
	m.termDeltas, m.touched = m.termDeltas[:0], 0
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

// seal seals the family's open transactions, if any (rel.Store.Seal), and
// returns the member's epoch over the family's sealed vectors at the
// member's sequence number, from committed state only: the counters the
// walk keeps, which the epoch shares. It allocates the epoch and nothing
// else. It returns nil while a walk a panic interrupted holds the open
// transactions: a pin then keeps the member's last epoch. Caller holds the
// seal mutex.
func (m *Maintainer) seal(mem *Member) *viewEpoch {
	rows := m.st.Seal(m.sealWords)
	if rows == nil {
		return nil
	}
	ep := &viewEpoch{seq: mem.epochSeq, rows: rows, count: rows.Len()}
	if mem.filtered {
		ep.words, ep.bit, ep.count, ep.patterns = m.epochWords, mem.bit(), mem.count, mem.patterns.seal()
	} else {
		ep.patterns = m.patterns.seal()
	}
	return ep
}

// sealWords seals the word transaction with the rows'.
func (m *Maintainer) sealWords(*rel.RowVec, uint64) {
	if m.openWords != nil {
		m.epochWords, m.openWords = m.openWords.Publish(), nil
	}
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

// store publishes ep as the member's current epoch. Caller holds the seal
// mutex.
func (mem *Member) store(ep *viewEpoch) {
	mem.ep.Store(ep)
	mem.dirty.Store(false)
	mem.opts.Metrics.Add("view.epoch.published", 1)
}
