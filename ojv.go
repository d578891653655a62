// Package ojv is a library for materialized outer-join views with efficient
// incremental maintenance, reproducing Larson & Zhou, "Efficient
// Maintenance of Materialized Outer-Join Views" (ICDE 2007).
//
// It bundles an in-memory relational engine (typed values with SQL NULL
// semantics, base tables with unique keys, secondary indexes and enforced
// foreign keys) with the paper's maintenance machinery: join-disjunctive
// normal forms, subsumption and maintenance graphs, primary- and
// secondary-delta computation, and foreign-key-based simplification.
//
// Quick start:
//
//	db := ojv.NewDatabase()
//	db.MustCreateTable("part", ojv.Cols(
//	    ojv.IntCol("p_partkey"), ojv.StrCol("p_name")), "p_partkey")
//	...
//	v, err := db.CreateView("pv",
//	    ojv.Table("part").FullJoin(
//	        ojv.Table("orders").LeftJoin(ojv.Table("lineitem"),
//	            ojv.Eq("lineitem", "l_orderkey", "orders", "o_orderkey")),
//	        ojv.Eq("part", "p_partkey", "lineitem", "l_partkey")),
//	    ojv.Columns("part.p_partkey", ...))
//	db.Insert("lineitem", rows) // the view is maintained incrementally
package ojv

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"ojv/internal/algebra"
	"ojv/internal/exec"
	"ojv/internal/obs"
	"ojv/internal/pipeline"
	"ojv/internal/rel"
	"ojv/internal/view"
)

// Re-exported substrate types. Values, rows and schemas are shared with the
// internal engine; the aliases make them constructible through this public
// package.
type (
	// Value is a single SQL value (integer, float, string, bool, date or
	// NULL).
	Value = rel.Value
	// Row is a tuple of values.
	Row = rel.Row
	// Column describes a base-table column.
	Column = rel.Column
	// Schema is an ordered list of columns.
	Schema = rel.Schema
	// Pred is a predicate over view tuples.
	Pred = algebra.Pred
	// ColRef names a column as (table, column).
	ColRef = algebra.ColRef
	// Options tunes the maintenance planner: the ablation switches, the
	// secondary-delta strategy and the observability hooks.
	Options = view.Options
	// MaintStats reports what one maintenance run did.
	MaintStats = view.MaintStats
	// AggSpec describes the group-by of an aggregation view.
	AggSpec = view.AggSpec
	// Aggregate is one aggregate output of an aggregation view.
	Aggregate = algebra.Aggregate
	// Strategy selects how the secondary delta is computed (Section 5).
	Strategy = view.Strategy
	// Tracer records nested maintenance spans when set on Options.Tracer;
	// export the recorded forest with WriteChromeTrace.
	Tracer = obs.Tracer
	// Span is one timed phase of a maintenance run.
	Span = obs.Span
	// Metrics holds named atomic counters and histograms when set on
	// Options.Metrics; export a snapshot with WriteJSON.
	Metrics = obs.Registry
)

// Secondary-delta strategies: StrategyAuto computes the secondary delta
// from the view (Section 5.2) for an SPOJ view and from base tables
// (Section 5.3) for an aggregation view; StrategyFromBase forces 5.3.
const (
	StrategyAuto     = view.StrategyAuto
	StrategyFromBase = view.StrategyFromBase
)

// Value constructors.
var (
	// Null is the SQL NULL marker.
	Null = rel.Null
)

// Int returns an integer value.
func Int(v int64) Value { return rel.Int(v) }

// Float returns a floating-point value.
func Float(v float64) Value { return rel.Float(v) }

// Str returns a string value.
func Str(v string) Value { return rel.Str(v) }

// Bool returns a boolean value.
func Bool(v bool) Value { return rel.Bool(v) }

// MustDate parses a YYYY-MM-DD date, panicking on malformed input.
func MustDate(s string) Value { return rel.MustDate(s) }

// NewTracer returns an empty maintenance tracer; set it on Options.Tracer
// when creating views to record one span tree per maintenance run.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetrics returns an empty metrics registry; set it on Options.Metrics
// when creating views to collect executor and maintenance counters.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// IntCol declares an integer column.
func IntCol(name string) Column { return Column{Name: name, Kind: rel.KindInt} }

// FloatCol declares a float column.
func FloatCol(name string) Column { return Column{Name: name, Kind: rel.KindFloat} }

// StrCol declares a string column.
func StrCol(name string) Column { return Column{Name: name, Kind: rel.KindString} }

// DateCol declares a date column.
func DateCol(name string) Column { return Column{Name: name, Kind: rel.KindDate} }

// NotNull marks a column NOT NULL (required for foreign-key columns).
func NotNull(c Column) Column { c.NotNull = true; return c }

// Cols collects column declarations.
func Cols(cols ...Column) []Column { return cols }

// Predicate constructors.

// Eq returns the equijoin predicate t1.c1 = t2.c2.
func Eq(t1, c1, t2, c2 string) Pred { return algebra.Eq(t1, c1, t2, c2) }

// CmpOp re-exports the comparison operators.
const (
	OpEq = algebra.OpEq
	OpNe = algebra.OpNe
	OpLt = algebra.OpLt
	OpLe = algebra.OpLe
	OpGt = algebra.OpGt
	OpGe = algebra.OpGe
)

// Cmp returns the predicate t.c <op> v for a constant v.
func Cmp(t, c string, op algebra.CmpOp, v Value) Pred { return algebra.CmpConst(t, c, op, v) }

// And returns the conjunction of predicates.
func And(ps ...Pred) Pred { return algebra.MakeAnd(ps...) }

// Col names a column as "table", "column".
func Col(table, column string) ColRef { return algebra.Col(table, column) }

// Columns parses "table.column" strings into column references.
func Columns(qualified ...string) []ColRef {
	out := make([]ColRef, len(qualified))
	for i, q := range qualified {
		parts := strings.SplitN(q, ".", 2)
		if len(parts) != 2 {
			panic(fmt.Sprintf("ojv: column %q is not table.column", q))
		}
		out[i] = algebra.Col(parts[0], parts[1])
	}
	return out
}

// Rel is a fluent builder for SPOJ view expressions.
type Rel struct{ e algebra.Expr }

// Table starts an expression from a base table.
func Table(name string) Rel { return Rel{e: &algebra.TableRef{Name: name}} }

// ExprRel wraps an algebra expression as a Rel (for tools and tests within
// this module that generate expressions directly).
func ExprRel(e algebra.Expr) Rel { return Rel{e: e} }

// Where applies a selection.
func (r Rel) Where(p Pred) Rel { return Rel{e: &algebra.Select{Input: r.e, Pred: p}} }

// Join inner-joins with another relation.
func (r Rel) Join(o Rel, on Pred) Rel {
	return Rel{e: &algebra.Join{Kind: algebra.InnerJoin, Left: r.e, Right: o.e, Pred: on}}
}

// LeftJoin left-outer-joins with another relation.
func (r Rel) LeftJoin(o Rel, on Pred) Rel {
	return Rel{e: &algebra.Join{Kind: algebra.LeftOuterJoin, Left: r.e, Right: o.e, Pred: on}}
}

// RightJoin right-outer-joins with another relation.
func (r Rel) RightJoin(o Rel, on Pred) Rel {
	return Rel{e: &algebra.Join{Kind: algebra.RightOuterJoin, Left: r.e, Right: o.e, Pred: on}}
}

// FullJoin full-outer-joins with another relation.
func (r Rel) FullJoin(o Rel, on Pred) Rel {
	return Rel{e: &algebra.Join{Kind: algebra.FullOuterJoin, Left: r.e, Right: o.e, Pred: on}}
}

// Expr exposes the underlying algebra expression (for tools and tests
// within this module).
func (r Rel) Expr() algebra.Expr { return r.e }

// Count, CountCol, Sum and Avg build aggregates for aggregation views.
func Count(name string) Aggregate { return Aggregate{Func: algebra.AggCount, Name: name} }

// CountCol counts non-null values of a column.
func CountCol(c ColRef, name string) Aggregate {
	return Aggregate{Func: algebra.AggCount, Col: c, Name: name}
}

// Sum sums a column.
func Sum(c ColRef, name string) Aggregate { return Aggregate{Func: algebra.AggSum, Col: c, Name: name} }

// Avg averages a column.
func Avg(c ColRef, name string) Aggregate { return Aggregate{Func: algebra.AggAvg, Col: c, Name: name} }

// Database owns a catalog of base tables and the materialized views
// registered over them. Every Insert/Delete/Update maintains the views it
// affects incrementally, in the same call — the role the paper's triggers
// play.
//
// A Database is safe for concurrent use: updates (Insert, Delete, Update,
// CreateView, DDL) serialize behind a write lock, while view reads pin the
// view's current committed epoch — an immutable snapshot of the last
// commit, sealed by the first read after it — so readers never block on,
// or observe torn state from, an in-flight maintenance run or WriteBatch
// flush. Epochs are per container:
// one read sees exactly one committed state of one view (or base table);
// two reads, or reads of two views, may straddle a commit. Reads that must
// be consistent with the base tables as a whole (Query answered from base
// tables, View.Check, Save) still take the shared read lock.
//
// There is one write path (write.go). A write is a set of independent
// components — delta tables that share no view footprint and no foreign
// key — each with a plan of single-table steps; a statement is one
// component with one step, a WriteBatch flush is whatever its queue
// partitions into. Each component is atomic across its base tables and
// every view they affect: a step applies its base delta, then stages each
// view family's maintenance in that family's undo-logged changeset (each
// family evaluates its own ΔV^D program, once for all its views), and the
// component either commits all of it into its epochs, or rolls
// back every staged changeset and base delta. So an error from
// Insert/Delete/Update means "nothing happened" rather than a
// half-maintained database.
type Database struct {
	mu sync.RWMutex
	// cat is never reassigned: LoadCatalog restores into it, so lock-free
	// readers (TableSnapshot) and open WriteBatch queues may hold it.
	cat *rel.Catalog
	// viewMu guards only the view registry (views, order). It is never held
	// across maintenance, so view lookups and the Query view-matching scan
	// stay responsive while a flush holds mu for a whole maintenance run.
	// Lock order: mu before viewMu, never the reverse.
	viewMu sync.RWMutex
	views  map[string]*View
	order  []string
	// families are the view families in the order they were founded: the
	// write path maintains each once for all of its views (DESIGN.md §19).
	// Guarded by mu alone: only registration, DropView and writes use it.
	families []*family
	// components caches each table's one-table component for statements
	// (tableComponent). Guarded by mu.
	components map[string]*flushComponent
}

// family is one view.Maintainer, which serves a view.Member per registered
// view: views that differ only in a selection on a table in every term of
// their normal form store, maintain and undo-log their rows once. Any other
// view is a family of one.
type family struct {
	m *view.Maintainer
	// footprint caches m.Footprint() for the write path's conflict analysis,
	// which partitions every flush and every table's statement component;
	// AddForeignKey — the one DDL that changes a footprint — refreshes it.
	footprint []string
	// views are the registered views the family serves, which a commit
	// hands the family's LastStats.
	views []*View
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	db := &Database{cat: rel.NewCatalog(), views: make(map[string]*View), components: make(map[string]*flushComponent)}
	db.cat.PublishEpochs()
	return db
}

// WrapCatalog adopts an existing catalog (e.g. a generated TPC-H database).
// The caller must not touch the catalog directly afterwards: it is not
// synchronized with the database's locks.
func WrapCatalog(cat *rel.Catalog) *Database {
	db := &Database{cat: cat, views: make(map[string]*View), components: make(map[string]*flushComponent)}
	db.cat.PublishEpochs()
	return db
}

// TableSnapshot is a pinned, immutable epoch of one base table: its rows as
// of the last committed statement (or flush) that touched it. Rows only —
// secondary indexes serve the write path and are not part of a snapshot.
// Safe for unsynchronized concurrent use.
type TableSnapshot = rel.TableSnapshot

// TableSnapshot pins the current committed epoch of a base table, or nil
// for an unknown table. Reads through the snapshot never block on, or see
// torn state from, an in-flight statement or WriteBatch flush.
func (db *Database) TableSnapshot(name string) *TableSnapshot {
	return db.cat.Snapshot(name)
}

// CreateTable creates a base table with the given unique key.
func (db *Database) CreateTable(name string, cols []Column, key ...string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	clear(db.components)
	_, err := db.cat.CreateTable(name, cols, key...)
	if err == nil {
		db.cat.PublishEpochs()
	}
	return err
}

// MustCreateTable is CreateTable that panics on error, for fixtures.
func (db *Database) MustCreateTable(name string, cols []Column, key ...string) {
	if err := db.CreateTable(name, cols, key...); err != nil {
		panic(err)
	}
}

// AddForeignKey declares and enforces a foreign key; the maintenance
// planner exploits it (paper Section 6).
func (db *Database) AddForeignKey(table string, cols []string, refTable string, refCols []string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	clear(db.components)
	err := db.cat.AddForeignKey(table, cols, refTable, refCols)
	if err == nil {
		db.cat.PublishEpochs()
		for _, f := range db.families {
			f.footprint = f.m.Footprint()
		}
	}
	return err
}

// CreateIndex declares a secondary hash index. Registered views never need
// one for their own maintenance — CreateView arranges an index over every
// join attribute its maintenance probes — so this is for Query and for
// pinning: declaring an index over a column set a view already arranged
// adopts that index under the given name, and it then outlives the views.
func (db *Database) CreateIndex(table, name string, cols ...string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.cat.Table(table) == nil {
		return fmt.Errorf("ojv: unknown table %s", table)
	}
	_, err := db.cat.CreateIndex(table, name, cols...)
	if err == nil {
		db.cat.PublishEpochs()
	}
	return err
}

// View is a registered materialized view.
type View struct {
	name string
	db   *Database
	mem  *view.Member
	fam  *family
	// LastStats records the most recent maintenance run: its family's, which
	// every view of the family shares.
	LastStats *MaintStats
}

// CreateView defines, validates and materializes an SPOJ view and registers
// it for incremental maintenance. Registration arranges, once, a maintained
// index over every join attribute the view's maintenance probes that has no
// key or declared index to serve it (shared with every other view probing
// the same columns, dropped with the last of them), so a small update costs
// index probes rather than a scan of the joined tables.
func (db *Database) CreateView(name string, r Rel, output []ColRef, opts ...Options) (*View, error) {
	def, err := view.Define(db.cat, name, r.e, output)
	if err != nil {
		return nil, err
	}
	return db.register(name, def, opts)
}

// CreateAggregateView defines an aggregation view (SPOJ core + group-by).
func (db *Database) CreateAggregateView(name string, r Rel, spec AggSpec, opts ...Options) (*View, error) {
	def, err := view.DefineAggregate(db.cat, name, r.e, spec)
	if err != nil {
		return nil, err
	}
	return db.register(name, def, opts)
}

func (db *Database) register(name string, def *view.Definition, opts []Options) (*View, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	clear(db.components)
	if _, dup := db.views[name]; dup {
		return nil, fmt.Errorf("ojv: view %s already exists", name)
	}
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	v := &View{name: name, db: db}
	for _, f := range db.families {
		mem, err := f.m.Join(def, o)
		if err != nil {
			return nil, err
		}
		if mem != nil {
			v.mem, v.fam = mem, f
			f.views = append(f.views, v)
			break
		}
	}
	if v.mem == nil {
		m, err := view.NewMaintainer(def, o)
		if err != nil {
			return nil, err
		}
		if err := m.Arrange(); err != nil {
			return nil, err
		}
		if err := m.Materialize(); err != nil {
			m.Release()
			return nil, err
		}
		v.mem, v.fam = m.Members()[0], &family{m: m, footprint: m.Footprint(), views: []*View{v}}
		db.families = append(db.families, v.fam)
	}
	v.mem.EnableSnapshots()
	db.viewMu.Lock()
	db.views[name] = v
	db.order = append(db.order, name)
	db.viewMu.Unlock()
	return v, nil
}

// DropView unregisters a view and releases its materialized state and its
// holds on the arrangements its maintenance probed (an arrangement no other
// view holds and nobody declared is dropped with it). A view of a family
// with other views leaves the family's store and arrangements to them; the
// last one releases them. It takes db.mu, so it serializes against
// statements and flushes the same way registration does: a drop never
// lands mid-flush, and the next flush simply plans without the view. A new
// view reusing the name (with a different definition) is maintained by its
// own plan (TestRegistryChangeBetweenFlushes). Dropping an unknown view is
// a no-op returning false.
func (db *Database) DropView(name string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.viewMu.Lock()
	defer db.viewMu.Unlock()
	v, ok := db.views[name]
	if !ok {
		return false
	}
	clear(db.components)
	f := v.fam
	f.m.Drop(v.mem)
	f.views = slices.DeleteFunc(f.views, func(w *View) bool { return w == v })
	if len(f.m.Members()) == 0 {
		f.m.Release()
		db.families = slices.DeleteFunc(db.families, func(g *family) bool { return g == f })
	}
	delete(db.views, name)
	for i, n := range db.order {
		if n == name {
			db.order = append(db.order[:i], db.order[i+1:]...)
			break
		}
	}
	return true
}

// View returns a registered view by name, or nil. It never blocks on an
// in-flight flush.
func (db *Database) View(name string) *View {
	db.viewMu.RLock()
	defer db.viewMu.RUnlock()
	return db.views[name]
}

// Query evaluates an SPOJ expression, answering from a registered
// materialized view when one has the same join-disjunctive normal form
// (different join orders and commuted outer joins still match; this is the
// exact-match case of the view-matching problem). The result carries the
// requested output columns; the second result names the view used, or ""
// when the query was computed from base tables.
//
// When a view answers the query, the rows come from the view's current
// committed epoch and the call never blocks on an in-flight flush; the
// base-table fallback takes the shared read lock.
func (db *Database) Query(r Rel, output []ColRef) ([]Row, string, error) {
	db.viewMu.RLock()
	views := make([]*View, 0, len(db.order))
	for _, name := range db.order {
		views = append(views, db.views[name])
	}
	db.viewMu.RUnlock()
	for _, v := range views {
		// A view's own definition and schema are immutable after
		// registration, so matching needs no lock.
		def := v.mem.Definition()
		if def.Agg != nil || !def.Matches(r.e) {
			continue
		}
		// Project the view rows onto the requested output.
		sch := v.Schema()
		cols := make([]int, len(output))
		usable := true
		for i, c := range output {
			p := sch.IndexOf(c.Table, c.Column)
			if p < 0 {
				usable = false
				break
			}
			cols[i] = p
		}
		if !usable {
			continue // the view matches but lacks a requested column
		}
		rows := v.Rows()
		out := make([]Row, len(rows))
		for i, row := range rows {
			out[i] = row.Project(cols)
		}
		return out, v.name, nil
	}
	// No view: evaluate from base tables.
	db.mu.RLock()
	defer db.mu.RUnlock()
	res, err := exec.Eval(&exec.Context{Catalog: db.cat}, &algebra.Project{Input: r.e, Cols: output})
	if err != nil {
		return nil, "", err
	}
	return res.Rows, "", nil
}

// Save writes a snapshot of the base tables (schemas, keys, foreign keys,
// indexes and rows). Views are not part of the snapshot: re-create them
// after OpenSnapshot — they materialize from the restored tables.
//
// Save holds the shared read lock for the whole serialization, so it is
// safe to call while statements or WriteBatch flushes run concurrently: it
// observes a committed database state, never a mid-flush one.
func (db *Database) Save(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cat.Save(w)
}

// LoadCatalog replaces the database's base tables with a snapshot written
// by Save (or Catalog.Save). All constraints are re-validated during the
// load. It refuses to run while views are registered: views hold plans and
// contents derived from the old tables and cannot be retargeted in place —
// load first, then create views. The tables are restored into the
// database's one catalog, so an open WriteBatch keeps working: statements
// it staged before the load flush against the loaded tables through the
// re-validating path (and fail there if the loaded constraints reject
// them). On error the database is unchanged.
func (db *Database) LoadCatalog(r io.Reader) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.viewMu.RLock()
	registered := len(db.views)
	db.viewMu.RUnlock()
	if registered > 0 {
		return fmt.Errorf("ojv: LoadCatalog with %d registered view(s); load before creating views", registered)
	}
	clear(db.components)
	if err := db.cat.Restore(r); err != nil {
		return err
	}
	db.cat.PublishEpochs()
	return nil
}

// OpenSnapshot restores a database written by Save. All constraints are
// re-validated during the load.
func OpenSnapshot(r io.Reader) (*Database, error) {
	cat, err := rel.LoadCatalog(r)
	if err != nil {
		return nil, err
	}
	return WrapCatalog(cat), nil
}

// Insert inserts rows into a base table and incrementally maintains every
// view it affects. The call is atomic: on error neither the base table nor
// any view has changed.
func (db *Database) Insert(table string, rows []Row) error {
	_, err := db.execute(pipeline.Step{Table: table, Op: pipeline.OpInsert, Added: rows})
	return err
}

// Delete removes the rows with the given keys from a base table and
// incrementally maintains every view it affects. It returns the deleted
// rows. The call is atomic: on error neither the base table nor any view
// has changed.
func (db *Database) Delete(table string, keys [][]Value) ([]Row, error) {
	st, err := db.execute(pipeline.Step{Table: table, Op: pipeline.OpDelete, Keys: keys})
	if err != nil {
		return nil, err
	}
	return st.Removed, nil
}

// Update replaces a row in place (the key must not change). Each view is
// maintained in one run over the signed delta the update makes, the old
// row removed and the new one added, which the paper maintains as a delete
// followed by an insert with the foreign-key optimizations disabled (its
// first exclusion in Section 6). The call is atomic: on error neither the
// base table nor any view has changed.
func (db *Database) Update(table string, key []Value, newRow Row) error {
	_, err := db.execute(pipeline.Step{Table: table, Op: pipeline.OpModify,
		Keys: [][]Value{key}, Removed: make([]Row, 1), Added: []Row{newRow}})
	return err
}

// Name returns the view's name.
func (v *View) Name() string { return v.name }

// ViewSnapshot is a pinned, immutable epoch of one view: Rows, Len, Schema
// and TermCardinality all answer as of the moment the snapshot was taken,
// no matter how many commits or flushes happen afterwards. Snapshots are
// safe for unsynchronized concurrent use and never block maintenance.
type ViewSnapshot = view.Snapshot

// Snapshot pins the view's current committed epoch. Use it to run several
// reads against one consistent state; single reads can call Rows/Len/...
// directly, which pin an epoch per call.
func (v *View) Snapshot() *ViewSnapshot { return v.mem.Snapshot() }

// Rows returns the current view contents. For aggregation views these are
// the group rows with SQL aggregate semantics. The rows come from the
// view's current committed epoch: the call never blocks on, or observes
// partial state from, an in-flight maintenance run or WriteBatch flush.
// Returned rows must be treated as read-only.
func (v *View) Rows() []Row { return v.mem.Snapshot().Rows() }

// Len returns the number of rows (or groups) in the view as of its current
// committed epoch.
func (v *View) Len() int { return v.mem.Snapshot().Len() }

// Schema returns the view's output schema (immutable after creation).
func (v *View) Schema() Schema { return v.mem.Schema() }

// TermCardinality returns the number of view rows whose source-table set is
// exactly the given set (per-term statistics, as in the paper's Table 1),
// as of the view's current committed epoch. It returns 0 for aggregation
// views.
func (v *View) TermCardinality(tables ...string) int {
	return v.mem.Snapshot().TermCardinality(tables)
}

// Check verifies the view against full recomputation of its own definition
// (two independent oracles); it is exposed for tests and tools.
func (v *View) Check() error {
	v.db.mu.RLock()
	defer v.db.mu.RUnlock()
	return v.mem.Check()
}

// Maintainer exposes the underlying maintainer — the view's family, which
// other views may share (for tools and benchmarks within this module).
func (v *View) Maintainer() *view.Maintainer { return v.fam.m }

// CheckView compiles (or fetches from cache) the maintenance plan of every
// base table the view references, under both update contracts (plain
// insert/delete batches and decomposed modifies), and statically verifies
// each against the paper's structural invariants. It returns the first
// plan-invariant violation, with the paper section the violated invariant
// comes from. It takes the write lock: plan compilation populates the cache.
func CheckView(v *View) error {
	v.db.mu.Lock()
	defer v.db.mu.Unlock()
	return v.fam.m.VerifyAllPlans()
}

// ExplainMaintenance renders the maintenance plan for updates to a table as
// the paper's Q1..Qn SQL-like statements (Section 7). It takes the write
// lock: rendering may compile and cache the plan.
func (v *View) ExplainMaintenance(table string, insert bool) (string, error) {
	v.db.mu.Lock()
	defer v.db.mu.Unlock()
	return v.fam.m.MaintenanceScript(table, insert)
}

// Select returns the view rows for which the predicate is true — a simple
// query interface over the maintained view (the reason to materialize it in
// the first place). It scans the view's current committed epoch, so it
// never blocks on an in-flight flush.
func (v *View) Select(p Pred) ([]Row, error) {
	f, err := p.Compile(v.Schema())
	if err != nil {
		return nil, err
	}
	var out []Row
	for _, r := range v.Rows() {
		if f(r) == algebra.True {
			out = append(out, r)
		}
	}
	return out, nil
}
