package view

import (
	"fmt"
	"slices"
	"sync/atomic"

	"ojv/internal/algebra"
	"ojv/internal/exec"
	"ojv/internal/obs"
	"ojv/internal/rel"
)

// View families (DESIGN.md §19). Views whose definitions differ only in the
// predicate of one selection σ_p over a table t that is in every term of the
// normal form are one family: σ_p then commutes to the top of the view
// (every view row carries a real t tuple, and a row and the row it subsumes
// agree on t), so each view is σ_p of the view the family stores,
// σ_{p₁ ∨ … ∨ pₙ}. A family is one Maintainer — one store, one set of plans,
// one changeset per run, one §5.2/§5.3 cleanup — and each view is a Member
// of it, with its own definition, options and epochs. A family of one is
// every view that has no such selection, or whose selection no other view
// shares: exactly the maintainer it always was.
//
// A member's rows are the stored rows its predicate accepts. A member whose
// predicate is the family's whole selection accepts every stored row; any
// other member is filtered, and the store keeps one membership word per
// slot beside the slab, a bit per filtered member, computed once when the
// row is linked (Materialized.linkSlot). At commit the family's one log
// is walked once, into the family's row vector and a vector of the
// membership words beside it, and a filtered member's epoch is the two
// vectors, as sealed by a pin, and its bit (epoch.go): its Snapshot reads
// the family's rows whose word carries the bit, and nothing is copied per
// member.

// maxMembers is the most views one family serves: a membership word has a
// bit per member. A further view of the same shape founds a new family.
const maxMembers = 64

// Member is one view of a family: its own definition (Check and Query match
// it), its own options (the family consults every member's FailPoint) and
// its own epochs over the family's store. The family serves its maintenance.
type Member struct {
	m    *Maintainer
	def  *Definition
	opts Options
	// pred is the member's predicate on the family's varying selection, nil
	// when the family has none, and accept is pred compiled over the output
	// schema.
	pred   algebra.Pred
	accept func(rel.Row) algebra.Tri
	// filtered members are those the store may hold rows for that pred
	// rejects: bit slot of a stored row's membership word records whether
	// accept took it. An unfiltered member's rows are all the stored rows.
	filtered bool
	slot     int

	// ep holds the current sealed epoch once EnableSnapshots has run, and
	// dirty is set while a commit that concerned the member is not sealed
	// into it. epochSeq is the number of the last such commit, and count and
	// patterns are a filtered member's committed row count and term
	// counters; the store's seal mutex guards the three and filtered. pins is
	// the cached snapshot-pin counter. See epoch.go.
	ep       atomic.Pointer[viewEpoch]
	dirty    atomic.Bool
	epochSeq uint64
	count    int
	patterns counters
	pins     *obs.Counter
}

// Definition returns the member's own definition.
func (mem *Member) Definition() *Definition { return mem.def }

// Schema returns the view's output schema.
func (mem *Member) Schema() rel.Schema {
	if mem.m.agg != nil {
		return mem.m.agg.schema
	}
	return mem.m.mv.schema
}

// bit returns the member's bit of a membership word.
func (mem *Member) bit() uint64 { return 1 << uint(mem.slot) }

// has reports whether the stored row in slot h is the member's.
func (mem *Member) has(h int32) bool {
	return !mem.filtered || mem.m.mv.bits[h]&mem.bit() != 0
}

// filtering reports whether the store keeps membership words: whether some
// member is filtered.
func (m *Maintainer) filtering() bool { return m.mv != nil && m.mv.filters != nil }

// rows returns the member's linked rows, in unspecified order.
func (mem *Member) rows() []rel.Row {
	s := mem.m.st
	out := make([]rel.Row, 0, s.Len())
	s.Handles(func(h int32) bool {
		if mem.has(h) {
			out = append(out, s.At(h).Row)
		}
		return true
	})
	return out
}

// Check verifies the member against both recompute oracles of its own
// definition (see Check), and its current epoch, once it has one, against
// its stored rows.
func (mem *Member) Check() error {
	var rows []rel.Row
	var err error
	if mem.m.agg != nil {
		rows = mem.m.agg.Rows()
		err = checkAgg(mem.def, rows)
	} else {
		rows = mem.rows()
		rel.SortRows(rows)
		err = checkRows(mem.def, rows)
	}
	if err != nil {
		return err
	}
	return mem.checkEpoch(rows)
}

// checkEpoch holds the member's current epoch against its stored rows: the
// same rows, Len their number, and per term pattern as many of them as
// TermCardinality reports.
func (mem *Member) checkEpoch(want []rel.Row) error {
	ep := mem.current()
	if ep == nil {
		return nil
	}
	got := (&Snapshot{mem: mem, ep: ep}).Rows()
	if ep.count != len(got) {
		return fmt.Errorf("view %s epoch %d: Len %d, Rows has %d", mem.def.Name, ep.seq, ep.count, len(got))
	}
	rel.SortRows(got)
	rel.SortRows(want)
	if err := diffRows(fmt.Sprintf("%s epoch %d vs store", mem.def.Name, ep.seq), got, want); err != nil {
		return err
	}
	if mem.m.mv == nil {
		return nil
	}
	terms := make(map[uint32]int)
	for _, row := range got {
		terms[mem.m.mv.pattern(row)]++
	}
	for p, n := range ep.patterns {
		if terms[p] != n {
			return fmt.Errorf("view %s epoch %d: %d rows of term %b, TermCardinality %d", mem.def.Name, ep.seq, terms[p], p, n)
		}
		delete(terms, p)
	}
	for p, n := range terms {
		return fmt.Errorf("view %s epoch %d: %d rows of term %b, TermCardinality 0", mem.def.Name, ep.seq, n, p)
	}
	return nil
}

// Members returns the views the family serves, in the order they joined.
func (m *Maintainer) Members() []*Member { return m.members }

// Name names the family after its oldest live member: its spans and errors
// carry that view's name. The family's own definition
// keeps its founder's name, which a later view may reuse once the founder
// is dropped.
func (m *Maintainer) Name() string {
	if len(m.members) == 0 {
		return m.def.Name
	}
	return m.members[0].def.Name
}

// initFamily makes the maintainer's one member, and finds the selection a
// family of this definition may vary.
func (m *Maintainer) initFamily(def *Definition, opts Options) {
	mem := &Member{m: m, def: def, opts: opts}
	m.members, m.sel = []*Member{mem}, -1
	if def.Agg != nil {
		return
	}
	if i, p, ok := familySelection(def); ok {
		accept, err := p.Compile(m.mv.schema)
		if err != nil {
			return // unreachable: familySelection checked p's columns are output
		}
		m.sel, m.disj, mem.pred, mem.accept = i, []algebra.Pred{p}, p, accept
		m.shape = withSelection(def.Expr, i, algebra.TruePred{}).String()
	}
}

// Join admits the view def, registered with opts, into the family when it
// belongs there, and returns its member; it returns nil and no error when
// it does not. A view belongs when its definition is the family's up to the
// predicate of the family's varying selection, its output columns are the
// family's and its options are equal but for FailPoint. When the family's
// selection does not imply the new predicate the family widens: its
// definition becomes σ over the disjunction, its plans and arrangements
// follow, and the rows of the new view the store lacks are inserted —
// existing rows keep their handles and existing members their epochs, and
// the family's vectors are rebuilt for the epochs to come. On error the
// family is unchanged. Callers hold the lock that serializes maintenance,
// and enable the member's snapshots afterwards.
func (m *Maintainer) Join(def *Definition, opts Options) (*Member, error) {
	if m.sel < 0 || def.Agg != nil || len(m.members) >= maxMembers ||
		!slices.Equal(def.Output, m.def.Output) || !sameOptions(m.opts, opts) {
		return nil, nil
	}
	i, p, ok := familySelection(def)
	if !ok || i != m.sel || algebra.PredTables(p)[0] != algebra.PredTables(m.disj[0])[0] ||
		withSelection(def.Expr, i, algebra.TruePred{}).String() != m.shape {
		return nil, nil
	}
	accept, err := p.Compile(m.mv.schema)
	if err != nil {
		return nil, err
	}
	var fresh []rel.Row
	disj := m.disj
	if !slices.ContainsFunc(disj, func(d algebra.Pred) bool { return implies(p, d) }) {
		// Widen: the plans of the wider definition are built and arranged
		// before anything is stored, so a failure leaves the family as it was.
		disj = append([]algebra.Pred{p}, slices.DeleteFunc(slices.Clone(disj), func(d algebra.Pred) bool { return implies(d, p) })...)
		wide, err := Define(m.def.cat, m.def.Name, withSelection(m.def.Expr, m.sel, algebra.MakeOr(disj...)), m.def.Output)
		if err != nil {
			return nil, err
		}
		if fresh, err = m.missingRows(def); err != nil {
			return nil, err
		}
		if err := m.redefine(wide); err != nil {
			return nil, err
		}
	}
	mem := &Member{m: m, def: def, opts: opts, pred: p, accept: accept, slot: m.freeSlot()}
	// Pins of the family wait from here until its epoch state is rebuilt:
	// refilter may filter a member whose counters only resnap computes.
	m.st.Locked(func() {
		m.members, m.disj = append(m.members, mem), disj
		m.refilter()
		for _, row := range fresh {
			//ojvlint:ignore failsite widening inserts, outside any changeset and under the registration lock, rows no member holds: no epoch or rollback sees them
			m.st.Fill(m.mv.viewKey(row), row) // missingRows checked every key
		}
		m.mv.rebits()
		if m.st.Sealed() != nil {
			m.resnap()
		}
	})
	return mem, nil
}

// Drop removes a member from the family. The store keeps the rows only the
// member wanted: the family's selection does not narrow, and the words keep
// the member's stale bit until a member that reuses its slot rewrites them.
// When no member is filtered any more the family stops publishing words.
// The facade releases the family with its last member.
func (m *Maintainer) Drop(mem *Member) {
	m.st.Locked(func() {
		m.members = slices.DeleteFunc(m.members, func(x *Member) bool { return x == mem })
		if mem.filtered {
			if m.refilter(); !m.filtering() {
				m.epochWords, m.openWords = nil, nil
			}
		}
	})
}

// freeSlot returns the lowest membership bit no member holds.
func (m *Maintainer) freeSlot() int {
	for s := 0; ; s++ {
		if !slices.ContainsFunc(m.members, func(x *Member) bool { return x.slot == s }) {
			return s
		}
	}
}

// refilter filters every member whose predicate is not the family's whole
// selection, and hands the store the filtered members' predicates by slot
// (none: the store keeps no membership words). A member once filtered stays
// filtered: the family's selection only widens.
func (m *Maintainer) refilter() {
	var filters []func(rel.Row) algebra.Tri
	for _, mem := range m.members {
		mem.filtered = mem.filtered || len(m.disj) > 1 || mem.pred.String() != m.disj[0].String()
		if !mem.filtered {
			continue
		}
		if mem.slot >= len(filters) {
			filters = append(filters, make([]func(rel.Row) algebra.Tri, mem.slot+1-len(filters))...)
		}
		filters[mem.slot] = mem.accept
	}
	m.mv.filters = filters
	if filters == nil {
		m.mv.bits = nil
	}
}

// missingRows evaluates def — the family's shape under a new member's
// selection — and returns the rows whose view keys the store lacks.
func (m *Maintainer) missingRows(def *Definition) ([]rel.Row, error) {
	res, err := exec.Eval(&exec.Context{Catalog: def.cat}, def.Expr)
	if err != nil {
		return nil, err
	}
	rows, err := projectToOutput(res, def, m.mv.schema)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, row := range rows {
		k := m.mv.viewKey(row)
		if seen[k] {
			return nil, duplicateKey(def.Name, row)
		}
		seen[k] = true
		if _, stored := m.st.Lookup(k); !stored {
			out = append(out, row)
		}
	}
	return out, nil
}

// redefine moves the family onto a wider definition: fresh plans, and the
// arrangements they probe acquired before the old ones are given back, so
// an index both need is never dropped and rebuilt. On error nothing moved.
func (m *Maintainer) redefine(wide *Definition) error {
	oldDef, oldPlans, oldHeld := m.def, m.plans, m.held
	m.def, m.mv.def, m.plans, m.held = wide, wide, make(map[planKey]*tablePlan), nil
	if err := m.Arrange(); err != nil {
		m.def, m.mv.def, m.plans, m.held = oldDef, oldDef, oldPlans, oldHeld
		return err
	}
	for _, a := range oldHeld {
		m.def.cat.Release(a.table, a.ix)
	}
	return nil
}

// familySelection finds the selection a family of def may vary: the first
// Select, in preorder, whose predicate references one table, present in
// every term of the normal form, through columns the view outputs. It
// returns the Select's preorder position among the Selects and its
// predicate.
func familySelection(def *Definition) (int, algebra.Pred, bool) {
	n := 0
	var found algebra.Pred
	at := -1
	var walk func(e algebra.Expr)
	walk = func(e algebra.Expr) {
		if s, ok := e.(*algebra.Select); ok {
			if at < 0 && everyTermSelection(def, s.Pred) {
				at, found = n, s.Pred
			}
			n++
		}
		for _, c := range e.Children() {
			walk(c)
		}
	}
	walk(def.Expr)
	return at, found, at >= 0
}

// everyTermSelection reports whether p references one table, in every term
// of def's normal form without foreign-key term elimination, through output
// columns only.
func everyTermSelection(def *Definition, p algebra.Pred) bool {
	tables := algebra.PredTables(p)
	if len(tables) != 1 {
		return false
	}
	for _, term := range def.nfNoFK.Terms {
		if !term.Has(tables[0]) {
			return false
		}
	}
	for _, c := range p.Columns() {
		if !hasOutput(def.Output, c.Table, c.Column) {
			return false
		}
	}
	return true
}

// withSelection returns a copy of e whose at-th Select (in preorder) has
// predicate p.
func withSelection(e algebra.Expr, at int, p algebra.Pred) algebra.Expr {
	out := algebra.CloneExpr(e)
	n := 0
	var walk func(e algebra.Expr)
	walk = func(e algebra.Expr) {
		if s, ok := e.(*algebra.Select); ok {
			if n == at {
				s.Pred = p
			}
			n++
		}
		for _, c := range e.Children() {
			walk(c)
		}
	}
	walk(out)
	return out
}

// implies reports whether p implies q, as far as one column compared with a
// constant can tell: the same predicate, or two bounds on one column of
// which p's is the tighter (c<5 implies c<7 and c<=5).
func implies(p, q algebra.Pred) bool {
	if p.String() == q.String() {
		return true
	}
	pc, ok := p.(algebra.Cmp)
	qc, ok2 := q.(algebra.Cmp)
	if !ok || !ok2 || pc.Left.IsConst || qc.Left.IsConst || !pc.Right.IsConst || !qc.Right.IsConst ||
		pc.Left.Col != qc.Left.Col || pc.Right.Const.Kind() != qc.Right.Const.Kind() {
		return false
	}
	c, ok := rel.Compare(pc.Right.Const, qc.Right.Const)
	if !ok {
		return false
	}
	lower := func(op algebra.CmpOp) bool { return op == algebra.OpLt || op == algebra.OpLe }
	upper := func(op algebra.CmpOp) bool { return op == algebra.OpGt || op == algebra.OpGe }
	switch {
	case lower(pc.Op) && lower(qc.Op):
		return c < 0 || c == 0 && (pc.Op == algebra.OpLt || qc.Op == algebra.OpLe)
	case upper(pc.Op) && upper(qc.Op):
		return c > 0 || c == 0 && (pc.Op == algebra.OpGt || qc.Op == algebra.OpGe)
	}
	return false
}

// sameOptions reports whether two views' options are equal field by field,
// but for FailPoint, which the family consults per member.
func sameOptions(a, b Options) bool {
	return a.DisableLeftDeep == b.DisableLeftDeep && a.DisableFKSimplify == b.DisableFKSimplify &&
		a.DisableFKGraph == b.DisableFKGraph && a.DisableOrphanIndex == b.DisableOrphanIndex &&
		a.Strategy == b.Strategy &&
		a.Tracer == b.Tracer && a.Metrics == b.Metrics
}
