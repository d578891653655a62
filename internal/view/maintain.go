package view

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ojv/internal/algebra"
	"ojv/internal/exec"
	"ojv/internal/obs"
	"ojv/internal/rel"
)

// Maintainer keeps a materialized view synchronized with its base tables.
// Call OnInsert/OnDelete/OnModify, or stage ApplyDelta, after the base-table
// update has been applied to the catalog, exactly as the paper assumes
// ("the base tables have already been updated"). A Maintainer is a view
// family (family.go): it stores and maintains the rows of every Member
// once; NewMaintainer makes a family of one.
type Maintainer struct {
	mv  *Materialized
	agg *AggMaterialized // non-nil for aggregation views
	// st is the rows of whichever of the two the maintainer has: the store
	// its changesets stage into and its epochs are sealed from.
	st   *rel.Store
	def  *Definition
	opts Options
	// planMu guards plans: the cache is populated lazily from paths the
	// Database documents as concurrency-safe (Query answering, EXPLAIN,
	// plan verification), which may race with each other.
	planMu sync.Mutex
	plans  map[planKey]*tablePlan
	// held lists the arrangements Arrange acquired and Release gives back.
	// Both run under the owner's exclusive lock (the Database's write lock
	// in register and DropView), like every other catalog DDL.
	held []arrangement

	// members are the views the family serves, in the order they joined.
	// sel is the preorder position, among the Selects of def.Expr, of the
	// selection the family varies (−1: none, a family of one for good);
	// shape renders def.Expr with that selection's predicate left out, and
	// disj are the disjuncts of the family's predicate there. See family.go.
	members []*Member
	sel     int
	shape   string
	disj    []algebra.Pred

	// arena holds the rows a maintenance half builds: its programs' (ΔV^D,
	// the §5.3 probe chains) and ΔV^D projected to the view's schema.
	// applyHalf resets it when the half ends. One arena serves the family
	// because its runs are serial (see tablePlan), and nothing keeps such a
	// row past its half: what the store keeps is heap copies. ctx is the
	// half's execution context, delta and projected hold its ΔV^D rows,
	// full-width and projected, and every half reuses all three; endHalf
	// clears them, so the family holds none of a statement's rows between
	// runs. orphanSeen is secondaryFromView's candidate set, cleared per
	// term.
	arena            rel.Arena
	ctx              exec.Context
	delta, projected []rel.Row
	orphanSeen       map[string]bool

	// The store's seal mutex (rel.Store.Locked) is the one lock a pin and a
	// commit share: a commit's walk and a member's seal hold it, nothing
	// else for long (epoch.go). It guards the fields below and every
	// member's filtered flag, sequence number and committed counters. The
	// store keeps the family's rows vector; epochWords is the membership
	// words of its last seal while a member is filtered (nil otherwise), and
	// openWords the transaction the commits since walked them into (nil
	// when none has). patterns is the committed term counters of the stored
	// rows, which the unfiltered members' epochs share (none for an
	// aggregation view). termDeltas and touched are the walk's scratch.
	epochWords *rel.Vec[uint64]
	openWords  *rel.VecTx[uint64]
	patterns   counters
	termDeltas []termDelta
	touched    uint64
}

type planKey struct {
	table string
	fkOK  bool
}

// arrangement is one hold on a catalog index this view's maintenance joins
// probe (rel.Catalog.Arrange).
type arrangement struct {
	table string
	ix    *rel.Index
}

// tablePlan is the maintenance plan for updates to one table: a logical
// half derived from the view definition alone, which never changes, and an
// executor half (prog, outCols, fromBase) compiled against the catalog's
// physical design, which Plan replaces — in a copy of the plan, callers may
// still hold the old one — when the design generation has moved. A plan is
// immutable once Plan has returned it, but for the operator trees of its
// program instances, which only the family's maintenance runs restart: a
// family's runs are serial — a statement runs under the database's write
// lock, and a flush gives each family to exactly one component — so one
// instance per program serves them all.
type tablePlan struct {
	table string
	nf    *algebra.NormalForm
	graph *algebra.MaintGraph
	// direct counts graph's directly affected terms (MaintStats.DirectTerms).
	direct int
	// primary is the ΔV^D expression (left-deep, FK-simplified according to
	// options); nil when the delta is provably empty or no term is directly
	// affected.
	primary  algebra.Expr
	indirect []*indirectPlan

	// prog is primary compiled (nil iff primary is), and run its instance:
	// every maintenance run restarts run instead of building a pipeline.
	prog *exec.Program
	run  *exec.Instance
	// outCols maps the view's output schema onto prog's: output column i is
	// ΔV^D column outCols[i], or NULL when −1 (see outputMapping), so a table
	// foreign-key simplification pruned from ΔV^D reads as null-extended.
	// Both halves of a run project ΔV^D through it once and read the view's
	// keys, term patterns and new orphans off the projected rows. nil for
	// aggregation views, which fold full-width rows.
	outCols []int
	// witness[i] is the ΔV^D position of a key column of view table i, −1
	// when the table is not in ΔV^D: §5.3 reads its candidates' term
	// patterns off full-width rows. nil unless fromBase is set.
	witness []int
	// fromBase holds the compiled §5.3 candidate computation per indirect
	// term, parallel to indirect; nil unless this maintainer cleans up from
	// base tables (StrategyFromBase, aggregation views) and prog exists.
	fromBase []*fromBaseTerm
}

// Program returns the compiled ΔV^D program (nil when PrimaryExpr is).
func (p *tablePlan) Program() *exec.Program { return p.prog }

// programs lists every program a maintenance run of the plan may start: the
// ΔV^D program and the §5.3 probe chains.
func (p *tablePlan) programs() []*exec.Program {
	if p.prog == nil {
		return nil
	}
	out := []*exec.Program{p.prog}
	for _, fb := range p.fromBase {
		if fb == nil {
			continue
		}
		for _, pp := range fb.parents {
			out = append(out, pp.insert.Program(), pp.delete.Program())
		}
	}
	return out
}

// Graph returns the (possibly FK-reduced) maintenance graph the plan uses.
func (p *tablePlan) Graph() *algebra.MaintGraph { return p.graph }

// PrimaryExpr returns the compiled ΔV^D expression (nil when provably
// empty or when no term is directly affected).
func (p *tablePlan) PrimaryExpr() algebra.Expr { return p.primary }

// indirectPlan drives the secondary delta for one indirectly affected term.
type indirectPlan struct {
	term algebra.Term
	// key is term.SourceKey(), the name its MaintStats count goes under.
	key string
	// tiMask is the term's table bitmask; parentMasks are the directly
	// affected parents' masks (the disjuncts of the paper's Pi predicate);
	// indirectExtrasMask covers the extra tables of indirectly affected
	// parents (the n(∪Rk) part of Qi in Section 5.3).
	tiMask             uint32
	parentMasks        []uint32
	indirectExtrasMask uint32
	// parents carries the base-table expressions of Section 5.3, one per
	// directly affected parent.
	parents []parentBase
}

// parentBase holds E'ip and qip for one directly affected parent term.
type parentBase struct {
	// exprInsert joins the parent's extra tables with the OLD state of the
	// updated table (T± ⋉la ΔT); exprDelete with the new state (T±).
	exprInsert algebra.Expr
	exprDelete algebra.Expr
	qip        algebra.Pred
}

// MaintStats reports what one maintenance run did; the row counts sum both
// halves of the delta.
type MaintStats struct {
	Table         string
	DirectTerms   int
	IndirectTerms int
	PrimaryRows   int
	// SecondaryRows counts the orphan rows the run added or removed; Terms
	// splits it by indirectly affected term, in the order the run first
	// counted one, and lists only terms with a nonzero count, so a run that
	// touches no orphan allocates nothing for it.
	SecondaryRows int
	Terms         []TermRows
	// UndoRecords counts the undo-log records the run staged before
	// committing (one per view mutation).
	UndoRecords int
	// Committed reports that the run's changeset committed. Runs that
	// surface an error roll back and never produce stats, so this is true
	// on every MaintStats the maintainer returns; it exists so callers that
	// aggregate stats (ojbench) can count commits against rollbacks.
	Committed bool
}

// TermRows is one term's share of a run's SecondaryRows: Term is the term's
// source key (algebra.Term.SourceKey, its tables sorted and comma-joined).
type TermRows struct {
	Term string
	Rows int
}

// SecondaryByTerm returns the orphan rows the run added or removed for the
// term with the given source key, both halves of the delta summed.
func (s *MaintStats) SecondaryByTerm(term string) int {
	for _, t := range s.Terms {
		if t.Term == term {
			return t.Rows
		}
	}
	return 0
}

// NewMaintainer registers a maintainer over a freshly materialized view.
func NewMaintainer(def *Definition, opts Options) (*Maintainer, error) {
	m := &Maintainer{def: def, opts: opts, plans: make(map[planKey]*tablePlan)}
	if def.Agg != nil {
		am, err := newAggMaterialized(def, opts)
		if err != nil {
			return nil, err
		}
		m.agg, m.st = am, &am.rows
	} else {
		mv, err := newMaterialized(def, opts)
		if err != nil {
			return nil, err
		}
		m.mv, m.st = mv, &mv.rows
	}
	m.initFamily(def, opts)
	return m, nil
}

// Materialized returns the stored view (nil for aggregation views).
func (m *Maintainer) Materialized() *Materialized { return m.mv }

// Aggregated returns the stored aggregation view (nil otherwise).
func (m *Maintainer) Aggregated() *AggMaterialized { return m.agg }

// Materialize (re)computes the stored contents from scratch. When
// snapshots are enabled the family's vectors are rebuilt and every member
// publishes a fresh full epoch (the store was replaced wholesale, so
// incremental publication does not apply), under the seal mutex.
func (m *Maintainer) Materialize() error {
	var err error
	if m.agg != nil {
		err = m.agg.Materialize()
	} else {
		err = m.mv.Materialize()
	}
	if err != nil {
		return err
	}
	m.st.Locked(func() {
		if m.st.Sealed() == nil {
			return
		}
		m.resnap()
		for _, mem := range m.members {
			if mem.ep.Load() != nil {
				mem.publishFull()
			}
		}
	})
	return nil
}

// Plan returns the compiled maintenance plan for a table (building and
// caching it on first use). fkOK declares that the update is a plain
// insert/delete batch for which the Section 6 foreign-key optimizations are
// sound. The logical plan is built once; its executor programs are compiled
// with it and again whenever the catalog's physical design has changed
// since (an index created after the view's first run is probed by the
// next). Plan is safe for concurrent use.
func (m *Maintainer) Plan(table string, fkOK bool) (*tablePlan, error) {
	fkOK = fkOK && !m.opts.DisableFKGraph
	key := planKey{table: table, fkOK: fkOK}
	m.planMu.Lock()
	defer m.planMu.Unlock()
	p, ok := m.plans[key]
	switch {
	case !ok:
		var err error
		if p, err = m.buildPlan(table, fkOK); err != nil {
			return nil, err
		}
	case p.prog == nil || p.prog.Generation() == m.def.cat.DesignGeneration():
		return p, nil
	default:
		stale := *p
		p = &stale
	}
	if err := m.compile(p); err != nil {
		return nil, err
	}
	m.plans[key] = p
	return p, nil
}

// Arrange makes "a small delta costs a few index probes" (§7) hold for this
// view by construction. It builds every maintenance plan the view will ever
// run — each base table under both foreign-key contracts, so a bad plan is
// rejected here rather than at the first statement — asks the compiled
// programs (ΔV^D, and the §5.3 probe chains of from-base and aggregation
// views) which secondary indexes their equijoins go through or would go
// through (exec.Program.Wants), and acquires the catalog's arrangement for
// each: the index a declaration or another view already provides, or a new
// one. A new index moves the catalog's design generation, so the next Plan
// recompiles the programs into probes. Arrange is the maintainer's only
// catalog side effect; on error it holds nothing. Release undoes it.
func (m *Maintainer) Arrange() (err error) {
	defer func() {
		if err != nil {
			m.Release()
		}
	}()
	seen := make(map[string]bool)
	for _, t := range m.def.tables {
		for _, fkOK := range []bool{true, false} {
			p, err := m.Plan(t, fkOK)
			if err != nil {
				return err
			}
			for _, prog := range p.programs() {
				for _, w := range prog.Wants() {
					key := fmt.Sprint(w.Table, w.Cols)
					if seen[key] {
						continue
					}
					seen[key] = true
					ix, err := m.def.cat.Arrange(w.Table, w.Cols)
					if err != nil {
						return err
					}
					m.held = append(m.held, arrangement{table: w.Table, ix: ix})
				}
			}
		}
	}
	return nil
}

// Release gives back every arrangement Arrange acquired; the catalog drops
// the ones no other view holds and nobody declared. The maintainer keeps
// working afterwards — its programs recompile to whatever the catalog still
// offers — so Release is also the undo of a registration that failed later.
func (m *Maintainer) Release() {
	for _, a := range m.held {
		m.def.cat.Release(a.table, a.ix)
	}
	m.held = nil
}

// Arrangements names the arrangements the view holds that nobody declared,
// as table(column,...), for explain tooling: the indexes that exist because
// this view (or a sibling) is registered.
func (m *Maintainer) Arrangements() []string {
	var out []string
	for _, a := range m.held {
		if a.ix.Pinned() {
			continue
		}
		sch := m.def.cat.Table(a.table).Schema()
		cols := make([]string, len(a.ix.Cols()))
		for i, c := range a.ix.Cols() {
			cols[i] = sch[c].Name
		}
		out = append(out, a.table+"("+strings.Join(cols, ",")+")")
	}
	sort.Strings(out)
	return out
}

// compile (re)builds the executor half of a plan against the catalog's
// current physical design.
func (m *Maintainer) compile(p *tablePlan) error {
	if p.primary == nil {
		return nil
	}
	prog, err := exec.Compile(m.def.cat, nil, p.primary)
	if err != nil {
		return err
	}
	p.prog, p.run = prog, prog.Instance()
	if m.mv != nil {
		p.outCols = outputMapping(prog.Schema(), m.mv.schema)
	}
	if m.agg == nil && m.opts.Strategy != StrategyFromBase {
		return nil
	}
	p.witness = m.witnessCols(prog.Schema())
	p.fromBase = make([]*fromBaseTerm, len(p.indirect))
	for i, ip := range p.indirect {
		if p.fromBase[i], err = m.compileFromBase(ip, prog.Schema(), p.witness); err != nil {
			return err
		}
	}
	return nil
}

func (m *Maintainer) buildPlan(table string, fkOK bool) (*tablePlan, error) {
	nf := m.def.nf
	opts := algebra.MaintOptions{ExploitFKs: true, FKs: m.def.cat}
	if !fkOK {
		nf = m.def.nfNoFK
		opts = algebra.MaintOptions{}
	}
	graph, err := nf.MaintenanceGraph(table, opts)
	if err != nil {
		return nil, err
	}
	p := &tablePlan{table: table, nf: nf, graph: graph, direct: len(graph.DirectTerms())}
	if p.direct > 0 {
		expr, err := BuildPrimaryDelta(m.def.cat, m.def.Expr, table,
			!m.opts.DisableLeftDeep, fkOK && !m.opts.DisableFKSimplify)
		if err != nil {
			return nil, err
		}
		p.primary = expr // may be nil: FK-simplified to empty
	}
	for _, ti := range graph.IndirectTerms() {
		ip, err := m.buildIndirectPlan(nf, graph, ti)
		if err != nil {
			return nil, err
		}
		p.indirect = append(p.indirect, ip)
	}
	// Process larger terms first: when a deletion creates both an {R,S}
	// orphan and an {R} candidate, the {R,S} orphan must be in the view
	// before {R}'s containment check runs, so the subsumed {R} tuple is not
	// inserted.
	sort.SliceStable(p.indirect, func(i, j int) bool {
		return len(p.indirect[i].term.Tables) > len(p.indirect[j].term.Tables)
	})
	if err := m.VerifyPlan(p, fkOK); err != nil {
		return nil, err
	}
	return p, nil
}

func (m *Maintainer) buildIndirectPlan(nf *algebra.NormalForm, graph *algebra.MaintGraph, termIdx int) (*indirectPlan, error) {
	term := nf.Terms[termIdx]
	ip := &indirectPlan{term: term, key: term.SourceKey(), tiMask: m.def.maskOf(term.Tables)}
	for _, pk := range graph.IndirectParents[termIdx] {
		ip.indirectExtrasMask |= m.def.maskOf(nf.Terms[pk].Tables) &^ ip.tiMask
	}
	for _, pk := range graph.DirectParents[termIdx] {
		parent := nf.Terms[pk]
		ip.parentMasks = append(ip.parentMasks, m.def.maskOf(parent.Tables))
		pb, err := m.buildParentBase(term, parent, graph.Updated)
		if err != nil {
			return nil, err
		}
		ip.parents = append(ip.parents, pb)
	}
	return ip, nil
}

// buildParentBase derives the Section 5.3 expressions for one directly
// affected parent Ek of an indirect term Ei.
//
// The parent's predicate pk is split into q(Rip) (conjuncts over the
// parent's extra tables only), q(T) (over the updated table only),
// q(Rip,T) (linking extras to T), and qip = q(Si,Rip,T) (linking Ei's
// tables to the extras or T). E'ip is then the join of the extras with the
// appropriate state of T. We deviate from the paper's presentation in one
// inessential way: the paper semijoins the extras against the T-part,
// yielding an Rip-schema relation, which cannot support a qip that links
// Si directly to T; we use a regular join so E'ip carries both the extras'
// and T's columns. Anti-join existence semantics make the two equivalent
// whenever the paper's form is well-defined.
func (m *Maintainer) buildParentBase(ti, parent algebra.Term, updated string) (parentBase, error) {
	tiSet := make(map[string]bool, len(ti.Tables))
	for _, t := range ti.Tables {
		tiSet[t] = true
	}
	var rip []string
	for _, t := range parent.Tables {
		if !tiSet[t] && t != updated {
			rip = append(rip, t)
		}
	}
	ripSet := make(map[string]bool, len(rip))
	for _, t := range rip {
		ripSet[t] = true
	}
	var qRip, qT, qRipT, qip []algebra.Pred
	for _, c := range algebra.Conjuncts(parent.Pred) {
		tabs := algebra.PredTables(c)
		var hasTi, hasRip, hasT bool
		for _, t := range tabs {
			switch {
			case tiSet[t]:
				hasTi = true
			case ripSet[t]:
				hasRip = true
			case t == updated:
				hasT = true
			}
		}
		switch {
		case hasTi && (hasRip || hasT):
			qip = append(qip, c)
		case hasRip && hasT:
			qRipT = append(qRipT, c)
		case hasRip && !hasTi && !hasT:
			qRip = append(qRip, c)
		case hasT && !hasTi && !hasRip:
			qT = append(qT, c)
		}
	}
	mkTPart := func(leaf algebra.Expr) algebra.Expr {
		if len(qT) == 0 {
			return leaf
		}
		return &algebra.Select{Input: leaf, Pred: algebra.MakeAnd(qT...)}
	}
	build := func(tLeaf algebra.Expr) algebra.Expr {
		if len(rip) == 0 {
			return mkTPart(tLeaf)
		}
		leaves := make([]algebra.Expr, 0, len(rip)+1)
		for _, r := range rip {
			leaves = append(leaves, &algebra.TableRef{Name: r})
		}
		leaves = append(leaves, mkTPart(tLeaf))
		conj := append(append([]algebra.Pred(nil), qRip...), qRipT...)
		return buildJoinTree(leaves, conj)
	}
	return parentBase{
		exprInsert: build(&algebra.OldTableRef{Name: updated}),
		exprDelete: build(&algebra.TableRef{Name: updated}),
		qip:        algebra.MakeAnd(qip...),
	}, nil
}

// buildJoinTree folds leaves into a left-deep inner-join tree, greedily
// picking, at each step, a leaf connected to the tree so far by some
// conjunct; unconnected leaves are cross-joined last and leftover conjuncts
// become a final selection.
func buildJoinTree(leaves []algebra.Expr, conjuncts []algebra.Pred) algebra.Expr {
	used := make([]bool, len(conjuncts))
	inTree := algebra.TableSet(leaves[0])
	tree := leaves[0]
	remaining := append([]algebra.Expr(nil), leaves[1:]...)
	connects := func(e algebra.Expr) []int {
		leafTabs := algebra.TableSet(e)
		var out []int
		for i, c := range conjuncts {
			if used[i] {
				continue
			}
			var hasTree, hasLeaf, foreign bool
			for _, t := range algebra.PredTables(c) {
				switch {
				case inTree[t]:
					hasTree = true
				case leafTabs[t]:
					hasLeaf = true
				default:
					foreign = true
				}
			}
			if hasTree && hasLeaf && !foreign {
				out = append(out, i)
			}
		}
		return out
	}
	for len(remaining) > 0 {
		picked := -1
		var predIdx []int
		for i, e := range remaining {
			if idx := connects(e); len(idx) > 0 {
				picked, predIdx = i, idx
				break
			}
		}
		if picked < 0 {
			picked = 0 // cross join
		}
		leaf := remaining[picked]
		remaining = append(remaining[:picked], remaining[picked+1:]...)
		var ps []algebra.Pred
		for _, i := range predIdx {
			used[i] = true
			ps = append(ps, conjuncts[i])
		}
		tree = &algebra.Join{Kind: algebra.InnerJoin, Left: tree, Right: leaf, Pred: algebra.MakeAnd(ps...)}
		for t := range algebra.TableSet(leaf) {
			inTree[t] = true
		}
	}
	var leftover []algebra.Pred
	for i, c := range conjuncts {
		if !used[i] {
			leftover = append(leftover, c)
		}
	}
	if len(leftover) > 0 {
		tree = &algebra.Select{Input: tree, Pred: algebra.MakeAnd(leftover...)}
	}
	return tree
}

// OnInsert maintains the view after rows were inserted into table. The run
// is atomic: on error the view rolls back to its pre-call state.
func (m *Maintainer) OnInsert(table string, delta []rel.Row) (*MaintStats, error) {
	return m.onDelta(table, nil, delta)
}

// OnDelete maintains the view after rows were deleted from table. The run
// is atomic: on error the view rolls back to its pre-call state.
func (m *Maintainer) OnDelete(table string, delta []rel.Row) (*MaintStats, error) {
	return m.onDelta(table, delta, nil)
}

// OnModify maintains the view after an update replaced the deleted rows of
// table by the inserted ones. The run is atomic: on error the view rolls
// back to its pre-call state.
func (m *Maintainer) OnModify(table string, deleted, inserted []rel.Row) (*MaintStats, error) {
	return m.onDelta(table, deleted, inserted)
}

// Footprint returns every base table a maintenance run of this view may
// read or write: the view's own tables plus, one FK hop out, the tables
// their declared foreign keys reference — the Section 6 optimizations let
// a plan probe an FK parent that is not itself part of the view. The
// result is sorted and duplicate-free. The flush coordinator's conflict
// analysis uses it to decide which views can maintain concurrently.
func (m *Maintainer) Footprint() []string {
	seen := make(map[string]bool)
	for _, t := range m.def.tables {
		seen[t] = true
		for _, fk := range m.def.cat.ForeignKeys(t) {
			seen[fk.RefTable] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// onDelta runs ApplyDelta in a fresh changeset, committing on success and
// rolling back on error.
func (m *Maintainer) onDelta(table string, removed, added []rel.Row) (*MaintStats, error) {
	cs := m.Begin()
	stats, err := m.ApplyDelta(cs, table, removed, added)
	if err != nil {
		if rbErr := m.RollbackStaged(cs); rbErr != nil {
			return nil, fmt.Errorf("%v; additionally: %w", err, rbErr)
		}
		return nil, err
	}
	m.CommitStaged(cs, stats)
	return stats, nil
}

// CommitStaged commits a staged changeset, completing stats with the undo
// count and commit flag: the store's one commit walk (rel.Store.Commit)
// walks the log into the family's open epoch (epoch.go) and releases the
// slots of the rows the run deleted. Committing a finished changeset is a
// no-op. Commit gets its own root span (attrs: view, undo_records) so trace
// consumers can separate maintenance work from transaction bookkeeping; the
// undo-record and commit counters publish to the registry here. Used by
// onDelta and by the Database, which commits several views' staged
// changesets together.
func (m *Maintainer) CommitStaged(cs *Changeset, stats *MaintStats) {
	if cs.done {
		return
	}
	stats.UndoRecords = cs.Len()
	commit := m.opts.Tracer.StartSpan("changeset.commit").
		SetStr("view", m.Name()).SetInt("undo_records", int64(stats.UndoRecords))
	m.st.Commit(cs.from, 0, m.walkRecord, m.markMembers) // members number their own epochs
	cs.done = true
	commit.End()
	m.opts.Metrics.Add("view.undo.records", int64(stats.UndoRecords))
	m.opts.Metrics.Add("view.commits", 1)
	stats.Committed = true
}

// RollbackStaged rolls a staged changeset back under a root rollback span
// (attrs: view, undo_records) and counts the rollback in the registry.
func (m *Maintainer) RollbackStaged(cs *Changeset) error {
	rb := m.opts.Tracer.StartSpan("changeset.rollback").
		SetStr("view", m.Name()).SetInt("undo_records", int64(cs.Len()))
	err := cs.Rollback()
	rb.End()
	m.opts.Metrics.Add("view.rollbacks", 1)
	return err
}

// Rebuild ends a torn changeset (see Changeset.Torn) and re-materializes the
// family from its base tables, which the caller has first restored to their
// state at Begin; every member publishes the rebuilt rows as a full epoch.
// The registry counts it as view.rebuilds.
func (m *Maintainer) Rebuild(cs *Changeset) error {
	cs.done = true
	m.opts.Metrics.Add("view.rebuilds", 1)
	return m.Materialize()
}

// ApplyDelta stages the maintenance of one step's signed delta on table
// into cs without committing; the caller owns Commit/Rollback. removed are
// the rows the step took out of the table and added the rows it put in, both
// already applied to the catalog: an insert has only added rows, a delete
// only removed ones, and a modify both, its old and new images paired by
// key. The Database uses this to make one base-table update atomic across
// every affected view.
//
// The run sits under one view.maintain root span, which ends on every exit.
// A panic skips the End of every span it unwinds through, so on a panic the
// root ends its whole tree (obs.Span.EndAll): the write that contains the
// panic (ojv.PanicError) keeps a well-formed trace.
func (m *Maintainer) ApplyDelta(cs *Changeset, table string, removed, added []rel.Row) (*MaintStats, error) {
	root := m.startMaintSpan(table, removed, added)
	returned := false
	defer func() {
		if !returned {
			root.EndAll()
		}
		root.End()
	}()
	stats, err := m.apply(cs, root, table, removed, added)
	returned = true
	return stats, err
}

// startMaintSpan opens the root span of one maintenance run. Returns nil
// (a no-op span) when tracing is disabled.
func (m *Maintainer) startMaintSpan(table string, removed, added []rel.Row) *obs.Span {
	root := m.opts.Tracer.StartSpan("view.maintain")
	if root == nil {
		return nil
	}
	op := "modify"
	switch {
	case len(removed) == 0:
		op = "insert"
	case len(added) == 0:
		op = "delete"
	}
	strategy := "from-view"
	if m.opts.Strategy == StrategyFromBase {
		strategy = "from-base"
	}
	return root.SetStr("view", m.Name()).SetStr("table", table).
		SetStr("op", op).SetStr("strategy", strategy)
}

// AccumulateStats folds one maintenance run's stats into a batch
// accumulator. A nil accumulator adopts s itself — the caller hands over a
// MaintStats fresh from ApplyDelta that nothing else holds — and later runs
// fold into it. Row counts and per-term orphan accounting sum across the
// runs; Table collapses to "" when runs span tables; the term counts keep
// their maximum, so neither run's plan shape is dropped.
func AccumulateStats(acc, s *MaintStats) *MaintStats {
	if acc == nil {
		return s
	}
	if acc.Table != s.Table {
		acc.Table = ""
	}
	acc.PrimaryRows += s.PrimaryRows
	if s.DirectTerms > acc.DirectTerms {
		acc.DirectTerms = s.DirectTerms
	}
	if s.IndirectTerms > acc.IndirectTerms {
		acc.IndirectTerms = s.IndirectTerms
	}
	for _, t := range s.Terms {
		acc.addSecondary(t.Term, t.Rows)
	}
	return acc
}

// addSecondary counts n orphan rows the run added or removed for a term.
func (s *MaintStats) addSecondary(term string, n int) {
	if n == 0 {
		return
	}
	s.SecondaryRows += n
	for i := range s.Terms {
		if s.Terms[i].Term == term {
			s.Terms[i].Rows += n
			return
		}
	}
	s.Terms = append(s.Terms, TermRows{Term: term, Rows: n})
}

// apply stages one maintenance run over a signed delta: the removed half in
// full (ΔV^D, the primary delete, then §5.2 nomination or the §5.3 delete
// case), then the added half, as the paper maintains an update: a delete
// followed by an insert. A two-sided delta is such an update, for which the
// §6 foreign-key optimizations are unsound (its first exclusion), so the run
// plans without them.
func (m *Maintainer) apply(cs *Changeset, span *obs.Span, table string, removed, added []rel.Row) (*MaintStats, error) {
	stats := &MaintStats{Table: table}
	// Publish the run's row accounting to the registry on every exit path
	// (including aborted runs: the invariant tests snapshot per attempt).
	defer func() {
		m.opts.Metrics.Add("view.rows.primary", int64(stats.PrimaryRows))
		m.opts.Metrics.Add("view.rows.secondary", int64(stats.SecondaryRows))
	}()
	if len(removed) == 0 && len(added) == 0 {
		return stats, nil
	}
	// The plan span also covers the cheap preparatory checks, so the phase
	// spans tile the run as tightly as possible (the golden acceptance is
	// that phase durations sum to within a few percent of the root).
	planSpan := span.Child("plan")
	referenced := false
	for _, t := range m.def.tables {
		if t == table {
			referenced = true
		}
	}
	if !referenced {
		planSpan.End()
		return stats, nil
	}
	plan, err := m.Plan(table, len(removed) == 0 || len(added) == 0)
	planSpan.End()
	if err != nil {
		return nil, err
	}
	stats.DirectTerms = plan.direct
	stats.IndirectTerms = len(plan.indirect)
	if err := m.applyHalf(cs, span, plan, removed, added, -1, stats); err != nil {
		return nil, err
	}
	if err := m.applyHalf(cs, span, plan, removed, added, +1, stats); err != nil {
		return nil, err
	}
	return stats, nil
}

// applyHalf stages one half of a signed delta: the removed rows when sign is
// −1, the added rows when it is +1. Both halves read the table through one
// context: its DeltaRef is the half's rows, and its OldTableRef the table's
// pre-step state. So the §5.3 evidence of the removed half is the table as it
// stands (are its candidates orphans after the step?) and that of the added
// half the pre-step state (were its candidates orphans before it?). The
// context is the family's, and the half's programs, and its projection of
// ΔV^D, carve their rows from the family's arena; both are reset when the
// half ends, on every path.
func (m *Maintainer) applyHalf(cs *Changeset, span *obs.Span, plan *tablePlan, removed, added []rel.Row, sign int64, stats *MaintStats) error {
	delta := added
	if sign < 0 {
		delta = removed
	}
	if len(delta) == 0 {
		return nil
	}
	defer m.endHalf()
	// The eval span covers execution-context construction too; the executor
	// attaches its per-operator pipeline spans beneath it.
	evalSpan := span.Child("primary.eval")
	m.ctx = exec.Context{
		Catalog:    m.def.cat,
		DeltaTable: plan.table,
		Removed:    removed,
		Added:      added,
		Delta:      delta,
		Metrics:    m.opts.Metrics,
		Span:       evalSpan,
		Arena:      &m.arena,
	}
	ctx := &m.ctx
	// Every half drains ΔV^D once, full-width: aggregation folds it and §5.3
	// reads its candidates off it. A stored view also projects it to its own
	// schema, which is all the primary apply and §5.2 read, in either half.
	var primary exec.Relation
	var batches int64
	if plan.primary != nil {
		var err error
		m.delta, batches, err = evalCounted(ctx, plan.run, m.delta)
		if err != nil {
			evalSpan.End()
			return err
		}
		primary = exec.Relation{Schema: plan.prog.Schema(), Rows: m.delta}
		if plan.outCols != nil {
			m.project(plan.outCols)
		}
	}
	evalSpan.SetInt("rows", int64(len(m.delta))).SetInt("batches", batches)
	evalSpan.End()
	stats.PrimaryRows += len(m.delta)

	if m.agg != nil {
		return m.applyAgg(cs, span, ctx, plan, primary, sign, stats)
	}

	// Step 1: apply the primary delta to the view. The store keeps a heap
	// copy of an inserted row; a deleted row is found by its view key.
	applySpan := span.Child("primary.apply")
	var key []byte
	for _, row := range m.projected {
		var err error
		if sign > 0 {
			err = cs.insertRow("primary-insert", m.mv.viewKey(row), row.Clone())
		} else {
			key = m.mv.appendKey(key[:0], row, m.mv.keyCols, ^uint32(0))
			var ok bool
			if _, ok, err = cs.deleteKey("primary-delete", key); err == nil && !ok {
				err = fmt.Errorf("view %s: primary delta row not found for deletion: %s", m.def.Name, row)
			}
		}
		if err != nil {
			applySpan.End()
			return err
		}
	}
	applySpan.SetInt("rows", int64(len(m.projected)))
	applySpan.End()

	// Step 2: compute and apply the secondary delta.
	if len(plan.indirect) == 0 {
		return nil
	}
	sec := span.Child("secondary")
	before := stats.SecondaryRows
	defer func() { sec.SetInt("rows", int64(stats.SecondaryRows-before)).End() }()
	useView := m.opts.Strategy != StrategyFromBase
	if useView && sign > 0 {
		// Insertion case via the view: the cleanups for all indirect terms
		// are combined into a single pass over the primary delta — the
		// direction the paper's future-work section sketches (combining the
		// ΔV^I computations for different terms by reusing partial results;
		// here the shared work is the per-row term classification).
		sec.SetStr("source", "view-combined")
		return m.secondaryInsertCombined(cs, plan.indirect, m.projected, stats)
	}
	if useView {
		// Deletion case via the view: terms are processed strictly in plan
		// order (larger terms first) because one term's new orphan changes a
		// later term's containment check — see buildPlan.
		sec.SetStr("source", "view")
		for _, ip := range plan.indirect {
			ts := sec.Child("term").SetStr("term", ip.key)
			n, err := m.secondaryFromView(cs, ip, m.projected)
			ts.SetInt("rows", int64(n))
			ts.End()
			if err != nil {
				return err
			}
			stats.addSecondary(ip.key, n)
		}
		return nil
	}
	// From-base cleanup: each term's candidate computation reads only the
	// catalog and the primary delta — by Theorem 1 the net contributions of
	// different terms are independent — so every term's candidates are
	// computed before the first view mutation, which then run in plan order.
	sec.SetStr("source", "base")
	cands, err := secondaryCandidatesAll(ctx, sec, plan, primary, sign)
	if err != nil {
		return err
	}
	for i, ip := range plan.indirect {
		ts := sec.Child("term.apply").SetStr("term", ip.key)
		n, err := m.applySecondaryFromBase(cs, ip, plan.fromBase[i], cands[i], sign)
		ts.SetInt("rows", int64(n))
		ts.End()
		if err != nil {
			return err
		}
		stats.addSecondary(ip.key, n)
	}
	return nil
}

// project appends every ΔV^D row of the half to m.projected in the view's
// schema (see outputMapping), carved from the family's arena, whose growth
// it publishes as the executor does.
func (m *Maintainer) project(mapping []int) {
	for _, row := range m.delta {
		pr, grew := m.arena.Row(len(mapping))
		if grew > 0 {
			m.opts.Metrics.Add("exec.arena.grow_bytes", int64(grew))
		}
		for j, src := range mapping {
			if src >= 0 {
				pr[j] = row[src]
			}
		}
		m.projected = append(m.projected, pr)
	}
}

// endHalf ends a maintenance half: the arena's rows are spent, and the
// half's references to them are dropped — the full-width ones also reach
// base rows a ΔV^D passes through, and the context the step's delta, which
// must not outlive the run.
func (m *Maintainer) endHalf() {
	m.ctx = exec.Context{}
	clear(m.delta)
	m.delta, m.projected = m.delta[:0], m.projected[:0]
	m.arena.Reset()
}

// evalCounted runs one start of a program instance to its end, appending
// its rows to dst, and returns them with the number of batches served, so
// the primary.eval span can report batch granularity alongside rows
// (ojexplain -stats). The rows are shared immutable references, valid until
// ctx's arena resets (the family's, at the end of the half).
func evalCounted(ctx *exec.Context, run *exec.Instance, dst []rel.Row) ([]rel.Row, int64, error) {
	src, err := run.Start(ctx)
	if err != nil {
		return dst, 0, err
	}
	if err := src.Open(); err != nil {
		src.Close()
		return dst, 0, err
	}
	var batches int64
	b := run.Batch()
	defer b.Clear()
	for {
		ok, err := src.Next(b)
		if err != nil {
			src.Close()
			return dst, 0, err
		}
		if !ok {
			break
		}
		batches++
		// Copy the rows out of the scratch container the next batch refills.
		dst = append(dst, b.Rows...)
	}
	return dst, batches, src.Close()
}

// secondaryCandidatesAll computes every indirect term's surviving ΔDi
// candidates from base tables, in term order. The result is indexed like
// plan.indirect.
func secondaryCandidatesAll(ctx *exec.Context, sec *obs.Span, plan *tablePlan, primary exec.Relation, sign int64) ([]exec.Relation, error) {
	cands := make([]exec.Relation, len(plan.indirect))
	for i, ip := range plan.indirect {
		ts := sec.Child("term.candidates").SetStr("term", ip.key)
		var err error
		cands[i], err = secondaryCandidatesFromBase(ctx, plan, ip, plan.fromBase[i], primary, sign)
		ts.SetInt("rows", int64(len(cands[i].Rows)))
		ts.End()
		if err != nil {
			return nil, err
		}
	}
	return cands, nil
}
