// Package view implements the paper's contribution: materialized SPOJ
// (select-project-outer-join) views, optionally aggregated (SPOJG), with
// efficient incremental maintenance.
//
// Maintenance follows the paper's two-step procedure (Section 3):
//
//  1. Compute the primary delta ΔV^D — a transformed copy of the view
//     expression with the updated table replaced by its delta (Section 4),
//     converted to a left-deep tree (Section 4.1) and simplified with
//     foreign keys (Section 6.1) — and apply it to the view.
//  2. Compute the secondary delta ΔV^I — the orphan cleanup for indirectly
//     affected terms — either from the view and the primary delta
//     (Section 5.2) or from base tables (Section 5.3), restricted to the
//     reduced maintenance graph (Section 6.2), and apply it with the
//     opposite sign.
package view

import (
	"fmt"
	"sort"

	"ojv/internal/algebra"
	"ojv/internal/obs"
	"ojv/internal/rel"
)

// Strategy selects how the secondary delta is computed.
type Strategy int8

// Strategies. StrategyAuto computes the secondary delta from the view and
// the primary delta (§5.2) for an SPOJ view, whose stored rows expose every
// table's key columns under Define's validation, and from base tables
// (§5.3) for an aggregation view, which stores only group rows. The paper
// notes the optimizer should choose in a cost-based manner; for point
// orphan lookups the view is almost always cheaper. StrategyFromBase forces
// §5.3 for every view.
const (
	StrategyAuto Strategy = iota
	StrategyFromBase
)

// Options tunes the maintenance planner. The zero value enables every
// optimization the paper describes; the Disable* switches exist for the
// ablation experiments.
type Options struct {
	// DisableLeftDeep keeps the bushy ΔV^D tree from the Section 4
	// transform instead of converting it to a left-deep tree (ablation for
	// Section 4.1).
	DisableLeftDeep bool
	// DisableFKSimplify skips the SimplifyTree pass over ΔV^D (Section 6.1).
	DisableFKSimplify bool
	// DisableFKGraph skips the Theorem 3 reduction of the maintenance graph
	// (Section 6.2) and FK-based term elimination during normalization.
	DisableFKGraph bool
	// DisableOrphanIndex drops the per-table key indexes on the view that
	// accelerate orphan existence checks; lookups fall back to view scans.
	DisableOrphanIndex bool
	// Strategy selects the secondary-delta source.
	Strategy Strategy
	// FailPoint, when non-nil, is consulted immediately before every staged
	// view mutation with that mutation site's label (the site list is
	// documented on Changeset). A non-nil result aborts the maintenance run
	// at exactly that point and the run's changeset rolls back. It exists
	// for deterministic fault-injection tests of the atomic-apply protocol
	// and must be nil in production use.
	FailPoint func(site string) error
	// Tracer, when non-nil, records one nested span tree per maintenance run
	// (see the obs package for the span taxonomy). Nil disables tracing; the
	// maintenance path then pays only a nil check per span site.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives executor- and maintenance-level
	// counters (rows scanned, hash probes, undo records). Nil disables
	// metrics collection.
	Metrics *obs.Registry
}

// AggSpec is the optional group-by on top of an SPOJ view (Section 3.3).
type AggSpec struct {
	GroupCols []algebra.ColRef
	Aggs      []algebra.Aggregate
}

// Definition is a validated SPOJ(G) view definition.
type Definition struct {
	Name string
	// Expr is the SPOJ operator tree (no projection or group-by inside).
	Expr algebra.Expr
	// Output lists the projected output columns. It must include the unique
	// key of every referenced base table (the view outputs a unique key, as
	// the paper requires, and the maintenance formulas need the key
	// columns).
	Output []algebra.ColRef
	// Agg, when non-nil, makes this an aggregation view over the SPOJ core.
	Agg *AggSpec

	cat *rel.Catalog
	// fullSchema is the unprojected tuple-space schema: the concatenation of
	// every referenced table's schema, in expression order.
	fullSchema rel.Schema
	// tables is the sorted list of referenced base tables.
	tables []string
	nf     *algebra.NormalForm
	nfNoFK *algebra.NormalForm
}

// Define validates a view definition against a catalog. It enforces the
// paper's standing restrictions (Section 2): every base table has a unique
// non-null key (guaranteed by the catalog), no table is referenced twice,
// all predicates are null-rejecting on the tables they reference, every
// join predicate references both join inputs, and the view output includes
// every table's key columns.
func Define(cat *rel.Catalog, name string, expr algebra.Expr, output []algebra.ColRef) (*Definition, error) {
	if err := validateSPOJ(cat, expr); err != nil {
		return nil, fmt.Errorf("view %s: %w", name, err)
	}
	fullSchema, err := fullSchemaOf(cat, expr)
	if err != nil {
		return nil, fmt.Errorf("view %s: %w", name, err)
	}
	for _, c := range output {
		if !fullSchema.Has(c.Table, c.Column) {
			return nil, fmt.Errorf("view %s: output column %s does not exist", name, c)
		}
	}
	tables := algebra.SortedTables(expr)
	for _, t := range tables {
		tab := cat.Table(t)
		for _, kc := range tab.KeyCols() {
			col := tab.Schema()[kc]
			if !hasOutput(output, col.Table, col.Name) {
				return nil, fmt.Errorf("view %s: output must include key column %s.%s", name, col.Table, col.Name)
			}
		}
	}
	nf, err := algebra.Normalize(expr, cat)
	if err != nil {
		return nil, fmt.Errorf("view %s: %w", name, err)
	}
	nfNoFK, err := algebra.Normalize(expr, nil)
	if err != nil {
		return nil, fmt.Errorf("view %s: %w", name, err)
	}
	return &Definition{
		Name:       name,
		Expr:       expr,
		Output:     output,
		cat:        cat,
		fullSchema: fullSchema,
		tables:     tables,
		nf:         nf,
		nfNoFK:     nfNoFK,
	}, nil
}

// DefineAggregate validates an aggregation view: an SPOJ core plus a
// group-by (Section 3.3). Group columns must be part of the core's output
// space; only COUNT/SUM/AVG are supported (MIN/MAX are not incrementally
// maintainable under deletions).
func DefineAggregate(cat *rel.Catalog, name string, expr algebra.Expr, agg AggSpec) (*Definition, error) {
	if err := validateSPOJ(cat, expr); err != nil {
		return nil, fmt.Errorf("view %s: %w", name, err)
	}
	fullSchema, err := fullSchemaOf(cat, expr)
	if err != nil {
		return nil, fmt.Errorf("view %s: %w", name, err)
	}
	if len(agg.GroupCols) == 0 {
		return nil, fmt.Errorf("view %s: aggregation view requires group columns", name)
	}
	for _, c := range agg.GroupCols {
		if !fullSchema.Has(c.Table, c.Column) {
			return nil, fmt.Errorf("view %s: group column %s does not exist", name, c)
		}
	}
	names := make(map[string]bool)
	for _, a := range agg.Aggs {
		switch a.Func {
		case algebra.AggCount, algebra.AggSum, algebra.AggAvg:
		default:
			return nil, fmt.Errorf("view %s: aggregate %v is not incrementally maintainable", name, a.Func)
		}
		if a.Func != algebra.AggCount || a.Col != (algebra.ColRef{}) {
			if !fullSchema.Has(a.Col.Table, a.Col.Column) {
				return nil, fmt.Errorf("view %s: aggregate column %s does not exist", name, a.Col)
			}
		}
		if a.Name == "" || names[a.Name] {
			return nil, fmt.Errorf("view %s: aggregate output names must be unique and non-empty", name)
		}
		names[a.Name] = true
	}
	nf, err := algebra.Normalize(expr, cat)
	if err != nil {
		return nil, fmt.Errorf("view %s: %w", name, err)
	}
	nfNoFK, err := algebra.Normalize(expr, nil)
	if err != nil {
		return nil, fmt.Errorf("view %s: %w", name, err)
	}
	spec := agg
	return &Definition{
		Name:       name,
		Expr:       expr,
		Agg:        &spec,
		cat:        cat,
		fullSchema: fullSchema,
		tables:     algebra.SortedTables(expr),
		nf:         nf,
		nfNoFK:     nfNoFK,
	}, nil
}

// Tables returns the sorted base tables the view references.
func (d *Definition) Tables() []string { return d.tables }

// tablePos returns a table's position in Tables — its bit in a term
// pattern and its index in every per-table structure of the stored view —
// or −1 for a table the view does not reference.
func (d *Definition) tablePos(table string) int {
	for i, t := range d.tables {
		if t == table {
			return i
		}
	}
	return -1
}

// maskOf returns the pattern bitmask of a set of the view's tables.
func (d *Definition) maskOf(tables []string) uint32 {
	var p uint32
	for _, t := range tables {
		p |= 1 << uint(d.tablePos(t))
	}
	return p
}

// NormalForm returns the view's join-disjunctive normal form (with FK-based
// term elimination applied).
func (d *Definition) NormalForm() *algebra.NormalForm { return d.nf }

// FullSchema returns the unprojected tuple-space schema.
func (d *Definition) FullSchema() rel.Schema { return d.fullSchema }

func hasOutput(out []algebra.ColRef, table, col string) bool {
	for _, c := range out {
		if c.Table == table && c.Column == col {
			return true
		}
	}
	return false
}

// fullSchemaOf builds the concatenated schema of all referenced tables in
// expression-leaf order.
func fullSchemaOf(cat *rel.Catalog, expr algebra.Expr) (rel.Schema, error) {
	var out rel.Schema
	for _, t := range expr.Tables() {
		sch, ok := cat.TableSchema(t)
		if !ok {
			return nil, fmt.Errorf("unknown table %s", t)
		}
		out = out.Concat(sch)
	}
	return out, nil
}

// validateSPOJ enforces the paper's restrictions on the view expression.
func validateSPOJ(cat *rel.Catalog, expr algebra.Expr) error {
	seen := make(map[string]bool)
	var walk func(e algebra.Expr) error
	walk = func(e algebra.Expr) error {
		switch n := e.(type) {
		case *algebra.TableRef:
			if cat.Table(n.Name) == nil {
				return fmt.Errorf("unknown table %s", n.Name)
			}
			if seen[n.Name] {
				return fmt.Errorf("table %s referenced twice (self-joins are not supported)", n.Name)
			}
			seen[n.Name] = true
			return nil
		case *algebra.Select:
			if err := checkNullRejecting(n.Pred); err != nil {
				return err
			}
			return walk(n.Input)
		case *algebra.Join:
			switch n.Kind {
			case algebra.InnerJoin, algebra.LeftOuterJoin, algebra.RightOuterJoin, algebra.FullOuterJoin:
			default:
				return fmt.Errorf("%s is not an SPOJ join kind", n.Kind)
			}
			if err := checkNullRejecting(n.Pred); err != nil {
				return err
			}
			if err := checkJoinPredSides(n); err != nil {
				return err
			}
			if err := walk(n.Left); err != nil {
				return err
			}
			return walk(n.Right)
		default:
			return fmt.Errorf("%T is not allowed in a view definition", e)
		}
	}
	return walk(expr)
}

// checkNullRejecting verifies the predicate rejects nulls on every table it
// references (the paper's standing assumption for view predicates).
func checkNullRejecting(p algebra.Pred) error {
	for _, t := range algebra.PredTables(p) {
		if !p.RejectsNullsOn(t) {
			return fmt.Errorf("predicate %s is not null-rejecting on %s", p, t)
		}
	}
	return nil
}

// checkJoinPredSides verifies every join predicate references at least one
// table from each input (required by the commuting and associativity
// transforms of Section 4).
func checkJoinPredSides(j *algebra.Join) error {
	if _, ok := j.Pred.(algebra.TruePred); ok {
		return fmt.Errorf("join predicates must not be empty")
	}
	left := algebra.TableSet(j.Left)
	right := algebra.TableSet(j.Right)
	var hasLeft, hasRight bool
	for _, t := range algebra.PredTables(j.Pred) {
		if left[t] {
			hasLeft = true
		}
		if right[t] {
			hasRight = true
		}
		if !left[t] && !right[t] {
			return fmt.Errorf("join predicate %s references %s, which is not a join input", j.Pred, t)
		}
	}
	if !hasLeft || !hasRight {
		return fmt.Errorf("join predicate %s must reference both join inputs", j.Pred)
	}
	return nil
}

// termKeyCols returns, for the sorted table set, each table's key column
// references in deterministic order.
func termKeyCols(cat *rel.Catalog, tables []string) []algebra.ColRef {
	var out []algebra.ColRef
	sorted := append([]string(nil), tables...)
	sort.Strings(sorted)
	for _, t := range sorted {
		tab := cat.Table(t)
		for _, kc := range tab.KeyCols() {
			out = append(out, algebra.Col(t, tab.Schema()[kc].Name))
		}
	}
	return out
}
