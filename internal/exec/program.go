package exec

import (
	"fmt"
	"strings"

	"ojv/internal/algebra"
	"ojv/internal/obs"
	"ojv/internal/rel"
)

// Program is an expression compiled against a catalog's physical design:
// every node's output schema, the compiled predicate closures, the
// projection/group/condense/λ column offsets, the equijoin columns and each
// join's physical algorithm with its probe plan. It holds nothing that
// changes from run to run — Start binds those from the Context — so it is
// immutable after Compile and may be started from any number of goroutines
// at once. The paper derives ΔV^D once per view and updated table and
// measures executing the cached plan (§4, §7); a Program is that cached
// plan for this executor. A caller that runs a program over and over on one
// goroutine at a time keeps an Instance beside it, which restarts one
// operator tree instead of allocating a new one per run.
//
// A program holds *rel.Table and *rel.Index pointers and a per-join index
// choice, so it is valid for the catalog design generation it was compiled
// at (Generation); whoever caches one recompiles when the catalog's
// DesignGeneration has moved.
type Program struct {
	root *node
	gen  uint64
	// wants lists the secondary-index needs of the program's joins; see Wants.
	wants []Want
}

// node is one compiled operator. Compile-time closures take the run's
// Context as a parameter and never capture one.
type node struct {
	expr algebra.Expr
	// schema is what the started operator's Source.Schema() reports; alg is
	// algebra.SchemaOf(expr). The two differ in nullability marks only (a
	// join reports the unmarked concatenation of its inputs' algebraic
	// schemas while its parent join compiles against the marked one), and
	// each consumer keeps the one it always compiled against. A node that
	// leaves schema unset reports alg (pad, group-by).
	schema rel.Schema
	alg    rel.Schema
	// rels names the RelRef leaves below the node; Start refuses a Context
	// that does not bind them before any operator or span exists.
	rels []string
	// start readies the node's operator (and, through its kids' start, its
	// inputs) for one run and opens its span under parent. old is nil or the
	// operator an earlier, finished run of the node returned: start then
	// resets that one in place, keeping its scratch, instead of allocating.
	start func(ctx *Context, parent *obs.Span, old Source) Source
	// label and kids render the physical plan (String); an index join keeps
	// only its probe-side input, the right operand lives in the label.
	label string
	kids  []*node
}

// compiler resolves names for one Compile call. It implements
// algebra.SchemaResolver with the same shadowing Context.TableSchema has:
// a bound relation hides a catalog table of the same name.
type compiler struct {
	cat  *rel.Catalog
	rels map[string]rel.Schema
	// wants collects what planIndexProbe reports, in plan order.
	wants []Want
}

func (c *compiler) TableSchema(name string) (rel.Schema, bool) {
	if sch, ok := c.rels[name]; ok {
		return sch, true
	}
	return c.cat.TableSchema(name)
}

// table resolves a base table by name.
func (c *compiler) table(name string) (*rel.Table, error) {
	t := c.cat.Table(name)
	if t == nil {
		return nil, fmt.Errorf("exec: unknown table %s", name)
	}
	return t, nil
}

// Compile compiles an expression into a Program. rels gives the schema of
// every RelRef leaf (the rows are bound per run, through Context.Rels). It
// opens no span and bumps no counter.
func Compile(cat *rel.Catalog, rels map[string]rel.Schema, e algebra.Expr) (*Program, error) {
	// Read the generation first: DDL racing the compile then leaves the
	// program stale, never wrongly current.
	gen := cat.DesignGeneration()
	c := &compiler{cat: cat, rels: rels}
	root, err := c.compile(e)
	if err != nil {
		return nil, err
	}
	return &Program{root: root, gen: gen, wants: c.wants}, nil
}

// compile compiles one node bottom-up: inputs first, then the operator
// (compileOp), then the node's algebraic schema from its inputs'.
func (c *compiler) compile(e algebra.Expr) (*node, error) {
	inputs := e.Children()
	n := &node{expr: e, kids: make([]*node, len(inputs))}
	in := make([]rel.Schema, len(inputs))
	for i, x := range inputs {
		kid, err := c.compile(x)
		if err != nil {
			return nil, err
		}
		n.kids[i], in[i] = kid, kid.alg
		n.rels = append(n.rels, kid.rels...)
	}
	if err := c.compileOp(n); err != nil {
		return nil, err
	}
	alg, err := algebra.NodeSchema(e, in, c)
	if err != nil {
		return nil, err
	}
	n.alg = alg
	if n.schema == nil {
		n.schema = alg
	}
	return n, nil
}

// Start instantiates the program for one run: it allocates the operator
// tree, opens the operator spans under ctx.Span (parent before child) and
// binds the run's deltas, relations, metrics and executor knobs. The
// caller must Open the source, pull it with Next, and Close it on every
// path once Start succeeded; a failed Start returns nothing to close.
func (p *Program) Start(ctx *Context) (Source, error) {
	if err := p.bound(ctx); err != nil {
		return nil, err
	}
	return p.root.start(ctx, ctx.span(), nil), nil
}

// bound checks that ctx binds every relation the program reads.
func (p *Program) bound(ctx *Context) error {
	for _, name := range p.root.rels {
		if _, ok := ctx.Rels[name]; !ok {
			return fmt.Errorf("exec: unbound relation %s", name)
		}
	}
	return nil
}

// Instance is a Program's operator tree kept from run to run. Start resets
// the tree the previous run used, in place, so a run allocates no operator,
// and the scratch batches and buffers its operators grew keep their
// capacity; Close drops what the run read and keeps the scratch. Batch is
// an output batch kept the same way. An Instance serves one run at a time —
// its previous run closed before Start — and is not safe for concurrent
// use; the Program stays immutable.
type Instance struct {
	p     *Program
	src   Source
	batch Batch
}

// Instance returns a fresh instance of the program.
func (p *Program) Instance() *Instance { return &Instance{p: p} }

// Program returns the program the instance runs.
func (in *Instance) Program() *Program { return in.p }

// Start readies the instance for one run, as Program.Start starts a program:
// the caller opens the source, pulls it and closes it on every path once
// Start succeeded.
func (in *Instance) Start(ctx *Context) (Source, error) {
	if err := in.p.bound(ctx); err != nil {
		return nil, err
	}
	in.src = in.p.root.start(ctx, ctx.span(), in.src)
	return in.src, nil
}

// Batch returns the instance's output batch, empty, for the caller's Next
// calls. The caller clears it (Batch.Clear) once it has drained the run.
func (in *Instance) Batch() *Batch {
	in.batch.Reset()
	return &in.batch
}

// reuse returns old as an *S when an earlier run of the node left one, and
// a new S otherwise.
func reuse[S any, P interface {
	*S
	Source
}](old Source) P {
	if s, ok := old.(P); ok {
		return s
	}
	return new(S)
}

// Schema describes the rows a started program streams.
func (p *Program) Schema() rel.Schema { return p.root.schema }

// Generation returns the catalog design generation the program was
// compiled at.
func (p *Program) Generation() uint64 { return p.gen }

// Wants lists, for every equijoin of the program whose right operand is a
// base table (or its old state) under any chain of selections and whose
// equi-columns are not that table's unique key, the (table, column set) a
// secondary index must cover for the join to probe instead of hash-building
// the table — whether or not such an index existed at compile time. Whoever
// registers the program for repeated runs arranges them (rel.Catalog.Arrange);
// the compiler itself runs under read locks and mutates nothing. Callers must
// not modify the result.
func (p *Program) Wants() []Want { return p.wants }

// String renders the physical plan as an indented operator tree: one line
// per operator, and for a join the algorithm chosen and, for an index join,
// the table probed and the key or index the probe goes through.
func (p *Program) String() string {
	var b strings.Builder
	var render func(n *node, depth int)
	render = func(n *node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.label)
		b.WriteByte('\n')
		for _, k := range n.kids {
			render(k, depth+1)
		}
	}
	render(p.root, 0)
	return b.String()
}
