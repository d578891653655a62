// Package exec evaluates logical algebra expressions against an in-memory
// catalog through a pull-based, batch-at-a-time operator pipeline: an
// expression compiles once into an immutable Program (program.go), and each
// run starts it into a tree of Source iterators (Open/Next/Close)
// exchanging Batches of row references (see batch.go and stream.go). Scans, selects,
// projections, λ, δ and the probe side of every join stream; subsumption
// operators, aggregation and hash-join build sides materialize, because
// their semantics are properties of their whole input. Eval remains as the
// materializing compatibility wrapper (drain a pipeline into a Relation)
// for callers that want the complete result — the algebra verifier, the
// planck checker, and the differential oracle.
//
// Joins pick a physical algorithm per node: index nested loop when the
// right operand is a (possibly selected) base table with a usable hash
// index on the equijoin columns, hash join when an equijoin exists, and
// nested loop otherwise. This reproduces the physical behaviour the paper
// relies on — a small delta on the left of a left-deep tree makes
// maintenance cost proportional to the delta, not the base tables.
//
// A pipeline runs on the goroutine that pulls it: a hash join drains and
// builds its right side at Open, then opens its left side, so rows arrive
// in one deterministic order. Concurrency lives a level up, where a flush
// maintains independent components on separate workers.
package exec

import (
	"ojv/internal/algebra"
	"ojv/internal/obs"
	"ojv/internal/rel"
)

// Relation is a materialized evaluation result.
type Relation struct {
	Schema rel.Schema
	Rows   []rel.Row
}

// Context supplies the data an expression is evaluated against.
type Context struct {
	// Catalog resolves TableRef leaves and provides schemas and indexes.
	Catalog *rel.Catalog
	// DeltaTable names the one table a step changed, and Removed and Added
	// are its signed delta (in the table's schema): the rows the step took
	// out of it and the rows it put in. An insert has only Added, a delete
	// only Removed, a modify both. OldTableRef reads the table's pre-step
	// state, current − Added (by key) + Removed.
	DeltaTable     string
	Removed, Added []rel.Row
	// Delta binds the DeltaRef leaves of DeltaTable: the half of the signed
	// delta a program propagates. A DeltaRef of any other table reads no
	// rows.
	Delta []rel.Row
	// Rels binds RelRef leaves to materialized relations.
	Rels map[string]Relation
	// BatchSize is the soft row cap per pipeline batch (joins may overshoot
	// for one input batch rather than split their output). Non-positive
	// means DefaultBatchSize. Results are identical rows in identical order
	// at every setting.
	BatchSize int
	// Metrics, when non-nil, receives executor counters (rows scanned, hash
	// build/probe rows, λ and condense applications). Counters are
	// incremented once per batch with batch totals, never per row, so the
	// enabled overhead stays small; a nil registry costs one pointer check
	// per batch.
	Metrics *obs.Registry
	// Span, when non-nil, is the parent span per-operator pipeline spans
	// attach under; the pipeline mirrors the plan tree beneath it, each
	// operator span ending at Close with its total row and batch counts.
	Span *obs.Span
	// Arena is where the run carves every row it builds: join outputs, null
	// extensions, λ's copies, projected, padded and grouped rows. Whoever
	// binds one owns the rows' lifetime: they stay valid until the arena's
	// Reset, which must come after the last read of the run's output. A
	// context without one gets a fresh arena per start (Program.Start), so
	// its rows live as long as anything refers to them.
	Arena *rel.Arena
}

// withArena returns c, or, when it binds no arena, a copy of it binding a
// fresh one.
func (c *Context) withArena() *Context {
	if c.Arena != nil {
		return c
	}
	cp := *c
	cp.Arena = new(rel.Arena)
	return &cp
}

// newRow carves a row of width NULLs from the run's arena, publishing the
// arena's growth (once per chunk, never per row) as exec.arena.grow_bytes.
func (c *Context) newRow(width int) rel.Row {
	r, grew := c.Arena.Row(width)
	if grew > 0 {
		c.Metrics.Add("exec.arena.grow_bytes", int64(grew))
	}
	return r
}

// cloneRow copies r into a row carved from the run's arena.
func (c *Context) cloneRow(r rel.Row) rel.Row {
	out := c.newRow(len(r))
	copy(out, r)
	return out
}

// TableSchema implements algebra.SchemaResolver. RelRef bindings shadow
// catalog tables of the same name (maintenance plans never reuse a table
// name for a relation binding).
func (c *Context) TableSchema(name string) (rel.Schema, bool) {
	if r, ok := c.Rels[name]; ok {
		return r.Schema, true
	}
	return c.Catalog.TableSchema(name)
}

// deltaOf returns the delta rows bound to a table, nil for any table but
// DeltaTable.
func (c *Context) deltaOf(table string) []rel.Row {
	if table != c.DeltaTable {
		return nil
	}
	return c.Delta
}

// Eval evaluates an expression and returns its materialized result: it
// compiles the expression into a pipeline, drains it, and closes it. Rows
// arrive in the same deterministic order the streaming pipeline produces.
func Eval(ctx *Context, e algebra.Expr) (Relation, error) {
	src, err := NewPipeline(ctx, e)
	if err != nil {
		return Relation{}, err
	}
	if err := src.Open(); err != nil {
		src.Close()
		return Relation{}, err
	}
	out, err := Drain(src)
	cerr := src.Close()
	if err != nil {
		return Relation{}, err
	}
	if cerr != nil {
		return Relation{}, cerr
	}
	return out, nil
}

// dedup removes exact duplicate rows (NULL equal to NULL).
func dedup(rows []rel.Row) []rel.Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	for _, r := range rows {
		k := rel.EncodeValues(r...)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// subsumes reports whether a subsumes b: a agrees with b on every column
// where b is non-null, and a has strictly fewer NULLs.
func subsumes(a, b rel.Row) bool {
	fewer := false
	for i := range b {
		if b[i].IsNull() {
			if !a[i].IsNull() {
				fewer = true
			}
			continue
		}
		if a[i].IsNull() || !a[i].Equal(b[i]) {
			return false
		}
	}
	return fewer
}

// removeSubsumed implements the paper's ↓ operator.
func removeSubsumed(rows []rel.Row) []rel.Row {
	out := rows[:0:0]
	for i, r := range rows {
		dropped := false
		for j, o := range rows {
			if i != j && subsumes(o, r) {
				dropped = true
				break
			}
		}
		if !dropped {
			out = append(out, r)
		}
	}
	return out
}
