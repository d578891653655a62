package exec

import (
	"fmt"
	"strings"

	"ojv/internal/algebra"
	"ojv/internal/obs"
	"ojv/internal/rel"
)

// This file compiles algebra expressions into pull-based batch pipelines
// (see batch.go for the Source protocol) and implements every streaming
// operator except joins (streamjoin.go) and grouped aggregation
// (streamagg.go).
//
// Streaming vs blocking: scan, select, project, λ (null-if), δ (dedup),
// pad, outer union and the probe side of every join are fully streaming —
// they hold at most one batch (plus, for δ, the set of seen keys). The
// subsumption-based operators (↓, ⊕, Condense) and group-by are blocking:
// subsumption and aggregation are properties of the whole input, so they
// buffer, transform once, and then emit in batches. Hash-join build sides
// are materialized for the same reason (see streamjoin.go).

// NewPipeline compiles an expression and starts it once: the one-shot entry
// point for callers that evaluate an expression a single time (Eval, view
// materialization, the checkers). Anything that runs the same expression
// repeatedly keeps the Program and calls Start per run. The caller must
// Open the source, pull it with Next, and Close it on every path once
// NewPipeline succeeded.
func NewPipeline(ctx *Context, e algebra.Expr) (Source, error) {
	p, err := Compile(ctx.Catalog, ctx.relSchemas(), e)
	if err != nil {
		return nil, err
	}
	return p.Start(ctx)
}

// relSchemas lists the schemas of the context's bound relations, which is
// all Compile wants of them.
func (c *Context) relSchemas() map[string]rel.Schema {
	if len(c.Rels) == 0 {
		return nil
	}
	out := make(map[string]rel.Schema, len(c.Rels))
	for name, r := range c.Rels {
		out[name] = r.Schema
	}
	return out
}

// span returns the parent span operator spans attach under (nil when
// tracing is off or the caller did not provide one).
func (c *Context) span() *obs.Span {
	if c == nil {
		return nil
	}
	return c.Span
}

// batchSize resolves the context's batch-size knob.
func (c *Context) batchSize() int {
	if c == nil || c.BatchSize <= 0 {
		return DefaultBatchSize
	}
	return c.BatchSize
}

// opBase carries the state every operator shares: its output schema, its
// span, and the row/batch tallies published at Close.
type opBase struct {
	schema  rel.Schema
	span    *obs.Span
	rows    int64
	batches int64
	closed  bool
}

func (o *opBase) Schema() rel.Schema { return o.schema }

// observe tallies one emitted batch.
func (o *opBase) observe(b *Batch) {
	if b.Len() == 0 {
		return
	}
	o.rows += int64(b.Len())
	o.batches++
}

// finish ends the operator's span exactly once.
func (o *opBase) finish() {
	if !o.closed {
		o.closed = true
		endSpan(o.span, o.rows, o.batches)
	}
}

// compileOp compiles the operator of one node whose inputs (n.kids) are
// already compiled: it resolves everything static — schemas, predicates,
// column offsets, the physical join — and leaves in n.start the per-run
// remainder, which allocates the operator struct, opens its span and starts
// its inputs.
func (c *compiler) compileOp(n *node) error {
	switch e := n.expr.(type) {
	case *algebra.TableRef:
		t, err := c.table(e.Name)
		if err != nil {
			return err
		}
		compileScan(n, e.Name, t.Schema(), func(*Context) []rel.Row { return t.Rows() }, nil, true)

	case *algebra.DeltaRef:
		t, err := c.table(e.Name)
		if err != nil {
			return err
		}
		compileScan(n, "Δ"+e.Name, t.Schema(), func(ctx *Context) []rel.Row { return ctx.deltaOf(e.Name) }, nil, true)

	case *algebra.OldTableRef:
		t, err := c.table(e.Name)
		if err != nil {
			return err
		}
		compileScan(n, e.Name+"±", t.Schema(), func(*Context) []rel.Row { return t.Rows() }, t, true)

	case *algebra.RelRef:
		sch, ok := c.rels[e.Name]
		if !ok {
			return fmt.Errorf("exec: unbound relation %s", e.Name)
		}
		n.rels = []string{e.Name}
		// A bound relation is an intermediate result, not base data: its
		// rows stay out of exec.rows.scanned.
		compileScan(n, e.Name, sch, func(ctx *Context) []rel.Row { return ctx.Rels[e.Name].Rows }, nil, false)

	case *algebra.Select:
		in := n.kids[0]
		pred, err := e.Pred.Compile(in.schema)
		if err != nil {
			return err
		}
		n.label = "select " + e.Pred.String()
		n.schema = in.schema
		n.start = func(ctx *Context, parent *obs.Span, old Source) Source {
			sp := opSpan(parent, "exec.select")
			s := reuse[selectSource](old)
			*s = selectSource{opBase: opBase{schema: n.schema, span: sp}, in: in.start(ctx, sp, s.in), pred: pred}
			return s
		}

	case *algebra.Project:
		in := n.kids[0]
		cols := make([]int, len(e.Cols))
		for i, col := range e.Cols {
			p := in.schema.IndexOf(col.Table, col.Column)
			if p < 0 {
				return fmt.Errorf("exec: projected column %s not in %s", col, in.schema)
			}
			cols[i] = p
		}
		n.label = "project"
		n.schema = in.schema.Project(cols)
		n.start = func(ctx *Context, parent *obs.Span, old Source) Source {
			sp := opSpan(parent, "exec.project")
			s := reuse[projectSource](old)
			*s = projectSource{opBase: opBase{schema: n.schema, span: sp}, in: in.start(ctx, sp, s.in), cols: cols}
			return s
		}

	case *algebra.Join:
		return c.compileJoin(n, e)

	case *algebra.OuterUnion:
		n.label = "union"
		n.schema, n.start = compileUnion(n.kids)

	case *algebra.MinUnion:
		schema, union := compileUnion(n.kids)
		n.label = "minunion"
		n.schema = schema
		n.start = func(ctx *Context, parent *obs.Span, old Source) Source {
			sp := opSpan(parent, "exec.minunion")
			s := reuse[blockingSource](old)
			*s = blockingSource{
				opBase: opBase{schema: schema, span: sp},
				ctx:    ctx, in: union(ctx, sp, s.in), transform: dropSubsumed,
			}
			return s
		}

	case *algebra.RemoveSubsumed:
		in := n.kids[0]
		n.label = "condense ↓"
		n.schema = in.schema
		n.start = func(ctx *Context, parent *obs.Span, old Source) Source {
			sp := opSpan(parent, "exec.condense")
			s := reuse[blockingSource](old)
			*s = blockingSource{
				opBase: opBase{schema: n.schema, span: sp},
				ctx:    ctx, in: in.start(ctx, sp, s.in), transform: dropSubsumed,
			}
			return s
		}

	case *algebra.Dedup:
		in := n.kids[0]
		n.label = "dedup"
		n.schema = in.schema
		n.start = func(ctx *Context, parent *obs.Span, old Source) Source {
			sp := opSpan(parent, "exec.dedup")
			s := reuse[dedupSource](old)
			*s = dedupSource{opBase: opBase{schema: n.schema, span: sp}, ctx: ctx, in: in.start(ctx, sp, s.in)}
			return s
		}

	case *algebra.NullIf:
		return compileNullIf(n, e)

	case *algebra.Condense:
		return compileCondense(n, e)

	case *algebra.Pad:
		in := n.kids[0]
		n.label = "pad " + strings.Join(e.Tables_, ",")
		n.start = func(ctx *Context, parent *obs.Span, old Source) Source {
			sp := opSpan(parent, "exec.pad")
			s := reuse[padSource](old)
			*s = padSource{opBase: opBase{schema: n.schema, span: sp}, in: in.start(ctx, sp, s.in)}
			return s
		}

	case *algebra.GroupBy:
		return compileGroupBy(n, e)

	default:
		return fmt.Errorf("exec: unknown node %T", e)
	}
	return nil
}

// compileScan compiles a leaf: a scan of the rows fetch reads out of the
// run's context, reported under the given name. old, when non-nil, makes it
// the pre-update state of that table (see scanSource).
func compileScan(n *node, name string, schema rel.Schema, fetch func(*Context) []rel.Row, old *rel.Table, counted bool) {
	n.label = "scan " + name
	n.schema = schema
	n.start = func(ctx *Context, parent *obs.Span, prev Source) Source {
		sp := opSpan(parent, "exec.scan").SetStr("table", name)
		s := reuse[scanSource](prev)
		*s = scanSource{opBase: opBase{schema: schema, span: sp}, ctx: ctx, fetch: fetch, old: old, counted: counted}
		return s
	}
}

// dropSubsumed is the ↓ transform of the blocking operators.
func dropSubsumed(ctx *Context, rows []rel.Row) []rel.Row {
	ctx.Metrics.Add("exec.condense.rows", int64(len(rows)))
	return removeSubsumed(rows)
}

// scanSource streams a row slice obtained once at Open: a base-table
// snapshot, a bound delta or relation, or a reconstructed old table state.
// fetch is compiled (it reads the rows out of whichever context runs it).
type scanSource struct {
	opBase
	ctx   *Context
	fetch func(*Context) []rel.Row
	// old, when non-nil, makes this the pre-update state of that table: the
	// current contents minus the inserted delta, or plus the deleted delta.
	// This is how the paper's T± ⋉la_eq(T) ΔT (insertions) and T± + ΔT
	// (deletions) are realized, without materializing the reconstructed
	// state — the insert case drops the fresh keys (exclude) during emission.
	old     *rel.Table
	exclude map[string]bool
	counted bool // publish emitted rows to exec.rows.scanned

	rows []rel.Row
	pos  int
}

func (s *scanSource) Open() error {
	s.rows = s.fetch(s.ctx)
	if s.old == nil {
		return nil
	}
	delta := s.ctx.deltaOf(s.old.Name())
	if !s.ctx.DeltaIsInsert {
		s.rows = append(s.rows, delta...)
	} else if len(delta) > 0 {
		s.exclude = make(map[string]bool, len(delta))
		for _, d := range delta {
			s.exclude[s.old.KeyOf(d)] = true
		}
	}
	return nil
}

func (s *scanSource) Next(b *Batch) (bool, error) {
	b.Reset()
	limit := s.ctx.batchSize()
	for s.pos < len(s.rows) && b.Len() < limit {
		r := s.rows[s.pos]
		s.pos++
		if s.exclude != nil && s.exclude[s.old.KeyOf(r)] {
			continue
		}
		b.Append(r)
	}
	if b.Len() == 0 && s.pos >= len(s.rows) {
		return false, nil
	}
	if s.counted {
		s.ctx.Metrics.Add("exec.rows.scanned", int64(b.Len()))
	}
	s.observe(b)
	return true, nil
}

func (s *scanSource) Close() error {
	s.ctx, s.rows, s.exclude = nil, nil, nil
	s.finish()
	return nil
}

// selectSource filters batches in place: it pulls the input into the
// caller's batch and compacts the surviving rows, allocating nothing.
type selectSource struct {
	opBase
	in   Source
	pred func(rel.Row) algebra.Tri
}

func (s *selectSource) Open() error { return s.in.Open() }

func (s *selectSource) Next(b *Batch) (bool, error) {
	for {
		ok, err := s.in.Next(b)
		if err != nil || !ok {
			return false, err
		}
		kept := b.Rows[:0]
		for _, r := range b.Rows {
			if s.pred(r) == algebra.True {
				kept = append(kept, r)
			}
		}
		b.Rows = kept
		if b.Len() > 0 {
			s.observe(b)
			return true, nil
		}
	}
}

func (s *selectSource) Close() error {
	err := s.in.Close()
	s.finish()
	return err
}

// projectSource rewrites each row of the caller's batch to the projected
// column set (one fresh row per input row, as projection narrows the row).
type projectSource struct {
	opBase
	in   Source
	cols []int
}

func (s *projectSource) Open() error { return s.in.Open() }

func (s *projectSource) Next(b *Batch) (bool, error) {
	ok, err := s.in.Next(b)
	if err != nil || !ok {
		return false, err
	}
	for i, r := range b.Rows {
		b.Rows[i] = r.Project(s.cols)
	}
	s.observe(b)
	return true, nil
}

func (s *projectSource) Close() error {
	err := s.in.Close()
	s.finish()
	return err
}

// compileNullIf compiles the λ operator: rows failing the Unless predicate
// get the null-table columns cleared on a fresh copy; passing rows stream
// through untouched.
func compileNullIf(n *node, e *algebra.NullIf) error {
	in := n.kids[0]
	pred, err := e.Unless.Compile(in.schema)
	if err != nil {
		return err
	}
	var nullCols []int
	for _, t := range e.NullTables {
		nullCols = append(nullCols, in.schema.TableColumns(t)...)
	}
	n.label = "lambda null " + strings.Join(e.NullTables, ",") + " unless " + e.Unless.String()
	n.schema = in.schema
	n.start = func(ctx *Context, parent *obs.Span, old Source) Source {
		sp := opSpan(parent, "exec.lambda")
		s := reuse[nullIfSource](old)
		*s = nullIfSource{
			opBase: opBase{schema: n.schema, span: sp},
			ctx:    ctx, in: in.start(ctx, sp, s.in), pred: pred, nullCols: nullCols,
		}
		return s
	}
	return nil
}

type nullIfSource struct {
	opBase
	ctx      *Context
	in       Source
	pred     func(rel.Row) algebra.Tri
	nullCols []int
}

func (s *nullIfSource) Open() error { return s.in.Open() }

func (s *nullIfSource) Next(b *Batch) (bool, error) {
	ok, err := s.in.Next(b)
	if err != nil || !ok {
		return false, err
	}
	for i, r := range b.Rows {
		if s.pred(r) == algebra.True {
			continue
		}
		nr := r.Clone()
		for _, c := range s.nullCols {
			nr[c] = rel.Null
		}
		b.Rows[i] = nr
	}
	s.ctx.Metrics.Add("exec.lambda.rows", int64(b.Len()))
	s.observe(b)
	return true, nil
}

func (s *nullIfSource) Close() error {
	err := s.in.Close()
	s.ctx = nil
	s.finish()
	return err
}

// dedupSource streams δ: the first occurrence of each row passes, later
// duplicates are dropped. Only the encoded keys of seen rows are retained.
type dedupSource struct {
	opBase
	ctx  *Context
	in   Source
	seen map[string]bool
}

func (s *dedupSource) Open() error {
	s.seen = make(map[string]bool)
	return s.in.Open()
}

func (s *dedupSource) Next(b *Batch) (bool, error) {
	for {
		ok, err := s.in.Next(b)
		if err != nil || !ok {
			return false, err
		}
		s.ctx.Metrics.Add("exec.condense.rows", int64(b.Len()))
		kept := b.Rows[:0]
		for _, r := range b.Rows {
			k := rel.EncodeValues(r...)
			if !s.seen[k] {
				s.seen[k] = true
				kept = append(kept, r)
			}
		}
		b.Rows = kept
		if b.Len() > 0 {
			s.observe(b)
			return true, nil
		}
	}
}

func (s *dedupSource) Close() error {
	err := s.in.Close()
	s.ctx, s.seen = nil, nil
	s.finish()
	return err
}

// padSource widens each row to the padded schema; the appended columns are
// the zero Value, i.e. NULL.
type padSource struct {
	opBase
	in Source
}

func (s *padSource) Open() error { return s.in.Open() }

func (s *padSource) Next(b *Batch) (bool, error) {
	ok, err := s.in.Next(b)
	if err != nil || !ok {
		return false, err
	}
	width := len(s.schema)
	for i, r := range b.Rows {
		pr := make(rel.Row, width)
		copy(pr, r)
		b.Rows[i] = pr
	}
	s.observe(b)
	return true, nil
}

func (s *padSource) Close() error {
	err := s.in.Close()
	s.finish()
	return err
}

// compileUnion compiles an outer union over already-compiled inputs and
// returns the union schema plus the start function of a source streaming
// the inputs in sequence, padded into the union schema (old, when non-nil,
// is the union an earlier run returned, restarted in place). Inputs whose schema
// already equals the union schema stream through without per-row copies.
func compileUnion(ins []*node) (rel.Schema, func(*Context, *obs.Span, Source) Source) {
	var schema rel.Schema
	for i, in := range ins {
		if i == 0 {
			schema = in.schema
		} else {
			schema = schema.Union(in.schema)
		}
	}
	mappings := make([][]int, len(ins))
	for i, in := range ins {
		identity := len(in.schema) == len(schema)
		mapping := make([]int, len(in.schema))
		for j, c := range in.schema {
			mapping[j] = schema.MustIndexOf(c.Table, c.Name)
			if mapping[j] != j {
				identity = false
			}
		}
		if !identity {
			mappings[i] = mapping
		}
	}
	return schema, func(ctx *Context, parent *obs.Span, old Source) Source {
		sp := opSpan(parent, "exec.union")
		s := reuse[unionSource](old)
		srcs := s.ins
		if srcs == nil {
			srcs = make([]Source, len(ins))
		}
		for i, in := range ins {
			srcs[i] = in.start(ctx, sp, srcs[i])
		}
		*s = unionSource{opBase: opBase{schema: schema, span: sp}, ins: srcs, mappings: mappings}
		return s
	}
}

type unionSource struct {
	opBase
	ins      []Source
	mappings [][]int // nil entry: input schema == union schema, no padding
	cur      int
}

func (s *unionSource) Open() error {
	for _, in := range s.ins {
		if err := in.Open(); err != nil {
			return err
		}
	}
	return nil
}

func (s *unionSource) Next(b *Batch) (bool, error) {
	for s.cur < len(s.ins) {
		ok, err := s.ins[s.cur].Next(b)
		if err != nil {
			return false, err
		}
		if !ok {
			s.cur++
			continue
		}
		if mapping := s.mappings[s.cur]; mapping != nil {
			width := len(s.schema)
			for i, r := range b.Rows {
				padded := make(rel.Row, width)
				for j, v := range r {
					padded[mapping[j]] = v
				}
				b.Rows[i] = padded
			}
		}
		s.observe(b)
		return true, nil
	}
	return false, nil
}

func (s *unionSource) Close() error {
	var first error
	for _, in := range s.ins {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.finish()
	return first
}

// blockingSource buffers its whole input, applies one transform, and emits
// the result in batches. It implements the pipeline-breaking operators
// (↓ and ⊕), whose semantics are properties of the complete input.
type blockingSource struct {
	opBase
	ctx       *Context
	in        Source
	transform func(ctx *Context, rows []rel.Row) []rel.Row

	started bool
	out     []rel.Row
	pos     int
}

func (s *blockingSource) Open() error { return s.in.Open() }

func (s *blockingSource) Next(b *Batch) (bool, error) {
	if !s.started {
		s.started = true
		in, err := Drain(s.in)
		if err != nil {
			return false, err
		}
		s.out = s.transform(s.ctx, in.Rows)
	}
	b.Reset()
	limit := s.ctx.batchSize()
	for s.pos < len(s.out) && b.Len() < limit {
		b.Append(s.out[s.pos])
		s.pos++
	}
	if b.Len() == 0 {
		return false, nil
	}
	s.observe(b)
	return true, nil
}

func (s *blockingSource) Close() error {
	err := s.in.Close()
	s.ctx, s.out = nil, nil
	s.finish()
	return err
}

// compileCondense compiles the grouped condense: within each group key, ↓
// then δ. Like the other subsumption operators it is blocking.
func compileCondense(n *node, e *algebra.Condense) error {
	in := n.kids[0]
	keyCols := make([]int, len(e.GroupKey))
	for i, c := range e.GroupKey {
		p := in.schema.IndexOf(c.Table, c.Column)
		if p < 0 {
			return fmt.Errorf("exec: condense key column %s not in %s", c, in.schema)
		}
		keyCols[i] = p
	}
	transform := func(ctx *Context, rows []rel.Row) []rel.Row {
		out := condenseRows(rows, keyCols)
		ctx.Metrics.Add("exec.condense.rows", int64(len(out)))
		return out
	}
	n.label = "condense ↓δ"
	n.schema = in.schema
	n.start = func(ctx *Context, parent *obs.Span, old Source) Source {
		sp := opSpan(parent, "exec.condense")
		s := reuse[blockingSource](old)
		*s = blockingSource{
			opBase: opBase{schema: n.schema, span: sp},
			ctx:    ctx, in: in.start(ctx, sp, s.in), transform: transform,
		}
		return s
	}
	return nil
}

// condenseRows applies ↓ then δ within each group (globally when keyCols is
// empty), preserving first-seen group order.
func condenseRows(rows []rel.Row, keyCols []int) []rel.Row {
	if len(keyCols) == 0 {
		return dedup(removeSubsumed(rows))
	}
	groups := make(map[string][]rel.Row)
	var order []string
	for _, r := range rows {
		k := rel.EncodeRowCols(r, keyCols)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	var out []rel.Row
	for _, k := range order {
		out = append(out, dedup(removeSubsumed(groups[k]))...)
	}
	return out
}
