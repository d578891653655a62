package view

import (
	"ojv/internal/algebra"
	"ojv/internal/exec"
	"ojv/internal/obs"
	"ojv/internal/rel"
)

// Multi-view maintenance: shared ΔV^D subplans via common-subexpression
// detection (DESIGN.md §15). Views over the same base tables share subtrees
// of their primary-delta plans — the same ΔT scan, the same first join
// against the same parent. This file canonicalizes each view's ΔV^D tree
// into structural keys, builds the shared-subexpression DAG across all
// views touched by a flush step, and evaluates each shared subtree exactly
// once: one producer pipeline feeds every consuming view's residual plan
// through an exec.Tee.
//
// Soundness: within one flush step every view maintains against the same
// delta and the same already-updated base tables (view maintenance mutates
// only view state), and pipeline evaluation is deterministic, so one
// producer evaluation streams bit-identical rows to what each view's own
// evaluation of the subtree would have produced. Sharing is restricted to
// subtrees that contain the Δ scan: those sit on the probe spine of the
// left-deep plan, which the executor always starts as operators — a base-
// table-only right operand may instead become an index probe that never
// starts its operand, so substituting it could leave a handle undrained
// (and would forfeit the index-join the paper's cost model relies on).

// canonKey returns the canonical structural key of a subtree. Expression
// String() renderings are recursive and deterministic and carry the join
// kind, predicate and λ/δ stage signatures, so structurally identical
// subtrees — and only those — collide.
func canonKey(e algebra.Expr) string { return e.String() }

// sharedNode is one shareable subtree of a compiled primary delta.
type sharedNode struct {
	expr algebra.Expr
	key  string
}

// collectShareable returns every shareable subtree of a primary-delta tree
// in preorder, plus the expr→key index the cut walk uses. Shareable means:
// not a leaf (sharing a bare scan saves nothing and costs buffering),
// contains the Δ scan (see the file comment), and contains no RelRef (its
// binding is evaluation-context dependent, so structural identity does not
// imply value identity).
func collectShareable(root algebra.Expr) ([]sharedNode, map[algebra.Expr]string) {
	type flags struct{ delta, relref bool }
	memo := make(map[algebra.Expr]flags)
	var classify func(e algebra.Expr) flags
	classify = func(e algebra.Expr) flags {
		if f, ok := memo[e]; ok {
			return f
		}
		var f flags
		switch e.(type) {
		case *algebra.DeltaRef:
			f.delta = true
		case *algebra.RelRef:
			f.relref = true
		default:
			for _, c := range e.Children() {
				cf := classify(c)
				f.delta = f.delta || cf.delta
				f.relref = f.relref || cf.relref
			}
		}
		memo[e] = f
		return f
	}
	classify(root)

	var nodes []sharedNode
	keys := make(map[algebra.Expr]string)
	var walk func(e algebra.Expr)
	walk = func(e algebra.Expr) {
		kids := e.Children()
		f := memo[e]
		if len(kids) > 0 && f.delta && !f.relref {
			k := canonKey(e)
			nodes = append(nodes, sharedNode{expr: e, key: k})
			keys[e] = k
		}
		for _, c := range kids {
			walk(c)
		}
	}
	walk(root)
	return nodes, keys
}

// sharedOccurrence is one view's use of a shared subtree: the node in that
// view's own plan tree that the tee handle replaces, and the compiled
// program of that plan (node is one of its operators).
type sharedOccurrence struct {
	m    *Maintainer
	node algebra.Expr
	prog *exec.Program
}

// sharedSubtree is one node of the shared-subexpression DAG.
type sharedSubtree struct {
	key string
	// expr is the representative tree (the first occurrence's node);
	// occurrences are structurally identical, so the first one's compiled
	// sub-node serves as the producer for all of them.
	expr algebra.Expr
	occ  []sharedOccurrence
}

// sharedDAG builds the shared-subexpression DAG for one (table, fkOK)
// update across the given maintainers: canonical keys appearing in the
// primary-delta trees of at least two distinct views become DAG nodes, and
// each view's tree is cut at its maximal shared subtrees (top-down: once a
// node is shared, its descendants stay inside it). Views that do not
// reference the table, or whose primary delta is provably empty, simply do
// not participate. The DAG is deterministic for a given maintainer order.
func sharedDAG(ms []*Maintainer, table string, fkOK bool) ([]*sharedSubtree, error) {
	type participant struct {
		m    *Maintainer
		plan *tablePlan
	}
	var parts []participant
	viewsByKey := make(map[string]int)
	for _, m := range ms {
		referenced := false
		for _, t := range m.def.tables {
			if t == table {
				referenced = true
			}
		}
		if !referenced {
			continue
		}
		plan, err := m.Plan(table, fkOK)
		if err != nil {
			return nil, err
		}
		if plan.primary == nil {
			continue
		}
		parts = append(parts, participant{m: m, plan: plan})
		seen := make(map[string]bool)
		for _, n := range plan.shared {
			if !seen[n.key] {
				seen[n.key] = true
				viewsByKey[n.key]++
			}
		}
	}
	if len(parts) < 2 {
		return nil, nil
	}

	byKey := make(map[string]*sharedSubtree)
	var out []*sharedSubtree
	for _, p := range parts {
		var cut func(e algebra.Expr)
		cut = func(e algebra.Expr) {
			if k, ok := p.plan.sharedKeys[e]; ok && viewsByKey[k] >= 2 {
				st := byKey[k]
				if st == nil {
					st = &sharedSubtree{key: k, expr: e}
					byKey[k] = st
					out = append(out, st)
				}
				st.occ = append(st.occ, sharedOccurrence{m: p.m, node: e, prog: p.plan.prog})
				return
			}
			for _, c := range e.Children() {
				cut(c)
			}
		}
		cut(p.plan.primary)
	}
	// A key can clear the viewsByKey threshold yet collect one occurrence:
	// the other views consume that subtree inside a larger shared node, so
	// their cuts never descend to it. A single-consumer tee saves nothing
	// and costs buffering — evaluate those per-view instead.
	kept := out[:0]
	for _, st := range out {
		if len(st.occ) >= 2 {
			kept = append(kept, st)
		}
	}
	return kept, nil
}

// SharedSubtree describes one shared-subexpression DAG node for tools
// (ojexplain -shared): the canonical key, the representative expression and
// the consuming view names, one per occurrence.
type SharedSubtree struct {
	Key   string
	Expr  algebra.Expr
	Views []string
}

// SharedDAG exposes the shared-subexpression DAG for one (table, fkOK)
// update across maintainers, for explain tooling. An empty result means no
// subtree is shared by two or more views.
func SharedDAG(ms []*Maintainer, table string, fkOK bool) ([]SharedSubtree, error) {
	dag, err := sharedDAG(ms, table, fkOK)
	if err != nil {
		return nil, err
	}
	out := make([]SharedSubtree, len(dag))
	for i, st := range dag {
		views := make([]string, len(st.occ))
		for j, o := range st.occ {
			views[j] = o.m.Name()
		}
		out[i] = SharedSubtree{Key: st.key, Expr: st.expr, Views: views}
	}
	return out, nil
}

// SharedRun holds the producers and tee handles of one flush step's shared
// evaluation. Build it with PlanShared before maintaining the step's views,
// pass each view its Bound map, and Close it after the last view — Close
// force-closes every handle (so producers of views that never reached their
// eval still release) and publishes the step's sharing metrics. A nil
// *SharedRun is valid and inert: Bound returns nil and Close no-ops, so the
// per-view path needs no branching.
type SharedRun struct {
	subtrees []*sharedSubtree
	tees     []*exec.Tee
	handles  [][]exec.Source
	bound    map[*Maintainer]map[algebra.Expr]exec.Source
	metrics  *obs.Registry
	closed   bool
}

// PlanShared builds the shared evaluation for one flush step: the DAG for
// (table, fkOK) across ms, one producer pipeline per shared subtree —
// started from the sub-node the first occurrence's plan already compiled,
// and evaluated lazily, at the first consumer pull — and one tee handle per
// occurrence. It returns nil when fewer than two views share anything —
// the caller proceeds exactly as before, with nil Bound maps.
//
// The producer evaluates under the first consuming view's BatchSize;
// results are bit-identical at any setting, so the choice only shapes
// batching. parent is the span producer spans
// attach under (the flush step); metrics receives the view.shared.*
// counters.
func PlanShared(ms []*Maintainer, table string, isInsert, fkOK bool, delta []rel.Row, parent *obs.Span, metrics *obs.Registry) (*SharedRun, error) {
	if len(delta) == 0 || len(ms) < 2 {
		return nil, nil
	}
	dag, err := sharedDAG(ms, table, fkOK)
	if err != nil {
		return nil, err
	}
	if len(dag) == 0 {
		return nil, nil
	}
	run := &SharedRun{
		subtrees: dag,
		bound:    make(map[*Maintainer]map[algebra.Expr]exec.Source),
		metrics:  metrics,
	}
	for _, st := range dag {
		first := st.occ[0].m
		span := parent.Child("view.shared.subtree").
			SetStr("table", table).
			SetStr("key", truncateKey(st.key)).
			SetInt("views", int64(len(st.occ)))
		pctx := &exec.Context{
			Catalog:       first.def.cat,
			DeltaTable:    table,
			Delta:         delta,
			DeltaIsInsert: isInsert,
			BatchSize:     first.opts.BatchSize,
			Metrics:       metrics,
			Span:          span,
		}
		src, err := st.occ[0].prog.Sub(st.expr).Start(pctx)
		if err != nil {
			span.End()
			run.Close()
			return nil, err
		}
		tee, hs := exec.NewTee(src, len(st.occ), span)
		run.tees = append(run.tees, tee)
		run.handles = append(run.handles, hs)
		for i, o := range st.occ {
			b := run.bound[o.m]
			if b == nil {
				b = make(map[algebra.Expr]exec.Source)
				run.bound[o.m] = b
			}
			b[o.node] = hs[i]
		}
		metrics.Add("view.shared.subtrees", 1)
		metrics.Add("view.shared.views", int64(len(st.occ)))
	}
	return run, nil
}

// Bound returns the cut-node → tee-handle map for one view's residual
// plan, or nil when the view shares nothing (or the run is nil).
func (r *SharedRun) Bound(m *Maintainer) map[algebra.Expr]exec.Source {
	if r == nil {
		return nil
	}
	return r.bound[m]
}

// Subtrees returns the number of shared subtrees this run evaluates once.
func (r *SharedRun) Subtrees() int {
	if r == nil {
		return 0
	}
	return len(r.subtrees)
}

// Close closes every handle (idempotent — handles already closed by their
// consuming pipelines no-op), which closes each producer exactly once, and
// publishes the run's row accounting: producer rows, Σ consumer rows, and
// rows saved (producer rows × (fan-out − 1), the evaluations the sharing
// avoided). The producer = Σ-consumer identity over fully drained runs is
// pinned by TestSharedRowIdentity.
func (r *SharedRun) Close() error {
	if r == nil || r.closed {
		return nil
	}
	r.closed = true
	var first error
	for i, tee := range r.tees {
		for _, h := range r.handles[i] {
			if err := h.Close(); err != nil && first == nil {
				first = err
			}
		}
		produced := tee.ProducedRows()
		r.metrics.Add("view.shared.rows.producer", produced)
		r.metrics.Add("view.shared.rows.consumer", tee.ConsumedRows())
		r.metrics.Add("view.shared.rows.saved", produced*int64(len(r.handles[i])-1))
	}
	return first
}

// truncateKey bounds the span attribute: canonical keys grow with the
// tree, and span attrs are for identification, not round-tripping.
func truncateKey(k string) string {
	const max = 160
	if len(k) <= max {
		return k
	}
	return k[:max] + "…"
}
