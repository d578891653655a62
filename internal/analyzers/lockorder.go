package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the module's lock-acquisition-order graph and flags any
// cycle: the deadlock class the async-flush roadmap item would otherwise
// discover in production. A lock node is a sync.Mutex/sync.RWMutex-typed
// struct field (identified per type, not per instance: WriteBatch.mu,
// Database.mu, Maintainer.planMu, ...) or a plain mutex variable. An edge
// A -> B is recorded when B is acquired — directly, or anywhere inside a
// statically-resolved callee — while A is held. Read and write locks of one
// RWMutex are the same node: RLock-under-Lock re-entry deadlocks just as
// hard once a writer queues.
//
// The walk is interprocedural over the whole module: each function's
// transitive acquire set is computed to a fixed point over the static call
// graph, and call sites propagate the caller's held set into it. Branches
// are walked with cloned held sets, `go` closures start empty (a goroutine
// does not inherit its spawner's locks), and a deferred Unlock keeps the
// lock held to function end, which is exactly what edge generation wants.
//
// Calls through function values and interface methods are not resolved;
// the analyzer is a hierarchy checker, not a whole-program alias analysis.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "flags cycles and inversions in the module's lock-acquisition order",
	RunModule: runLockOrder,
}

// lockEdge is one observed acquisition order, kept at its first site.
type lockEdge struct {
	pos token.Pos // acquisition (or call) site creating the edge
}

// lockFunc is the per-function summary used by the fixed point.
type lockFunc struct {
	pkg      *Package
	decl     *ast.FuncDecl
	acquires map[types.Object]bool // locks acquired anywhere, transitively
	callees  []*types.Func
}

type lockOrderState struct {
	mp    *ModulePass
	funcs map[*types.Func]*lockFunc
	names map[types.Object]string
	edges map[[2]types.Object]lockEdge
}

func runLockOrder(mp *ModulePass) error {
	st := &lockOrderState{
		mp:    mp,
		funcs: make(map[*types.Func]*lockFunc),
		names: make(map[types.Object]string),
		edges: make(map[[2]types.Object]lockEdge),
	}

	// Function registry across all packages.
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				st.funcs[fn] = &lockFunc{pkg: pkg, decl: fd}
			}
		}
	}

	// Direct acquire sets and call edges.
	for _, lf := range st.funcs {
		lf.acquires = make(map[types.Object]bool)
		ast.Inspect(lf.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if obj, op := st.lockTarget(lf.pkg, call); obj != nil && (op == "Lock" || op == "RLock") {
				lf.acquires[obj] = true
			}
			if callee := calleeFunc(lf.pkg, call); callee != nil {
				lf.callees = append(lf.callees, callee)
			}
			return true
		})
	}

	// Fixed point: propagate callee acquires to callers.
	for changed := true; changed; {
		changed = false
		for _, lf := range st.funcs {
			for _, callee := range lf.callees {
				clf, ok := st.funcs[callee]
				if !ok {
					continue
				}
				for obj := range clf.acquires {
					if !lf.acquires[obj] {
						lf.acquires[obj] = true
						changed = true
					}
				}
			}
		}
	}

	// Edge generation: ordered walk of every body with a held set.
	for _, lf := range st.funcs {
		st.walkStmts(lf.pkg, lf.decl.Body.List, make(map[types.Object]token.Pos))
	}

	st.report()
	return nil
}

// lockTarget resolves call to (mutex identity, method name) when it is a
// Lock/RLock/Unlock/RUnlock on a sync.Mutex or sync.RWMutex; the identity is
// the struct field object (per-type) or the plain variable object.
func (st *lockOrderState) lockTarget(pkg *Package, call *ast.CallExpr) (types.Object, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, ""
	}
	if !isSyncMutex(pkg, sel.X) {
		return nil, ""
	}
	switch recv := sel.X.(type) {
	case *ast.SelectorExpr:
		s, ok := pkg.Info.Selections[recv]
		if !ok {
			return nil, ""
		}
		obj := s.Obj()
		if _, seen := st.names[obj]; !seen {
			owner := s.Recv()
			if p, ok := owner.(*types.Pointer); ok {
				owner = p.Elem()
			}
			ownerName := types.TypeString(owner, func(p *types.Package) string { return p.Name() })
			st.names[obj] = ownerName + "." + obj.Name()
		}
		return obj, op
	case *ast.Ident:
		// Package-level or local mutex variable.
		obj := pkg.Info.ObjectOf(recv)
		if obj == nil {
			return nil, ""
		}
		if _, seen := st.names[obj]; !seen {
			st.names[obj] = pkg.Types.Name() + "." + obj.Name()
		}
		return obj, op
	}
	return nil, ""
}

// isSyncMutex reports whether e's type is sync.Mutex or sync.RWMutex
// (possibly through a pointer).
func isSyncMutex(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// calleeFunc statically resolves a call to its *types.Func, or nil for
// function values, interface methods and builtins.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// walkStmts walks statements in order, threading the held set through
// straight-line code and cloning it into branches.
func (st *lockOrderState) walkStmts(pkg *Package, stmts []ast.Stmt, held map[types.Object]token.Pos) {
	for _, s := range stmts {
		st.walkStmt(pkg, s, held)
	}
}

func cloneHeld(held map[types.Object]token.Pos) map[types.Object]token.Pos {
	c := make(map[types.Object]token.Pos, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func (st *lockOrderState) walkStmt(pkg *Package, s ast.Stmt, held map[types.Object]token.Pos) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		st.walkStmts(pkg, s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			st.walkStmt(pkg, s.Init, held)
		}
		st.scanExpr(pkg, s.Cond, held)
		st.walkStmt(pkg, s.Body, cloneHeld(held))
		if s.Else != nil {
			st.walkStmt(pkg, s.Else, cloneHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st.walkStmt(pkg, s.Init, held)
		}
		if s.Cond != nil {
			st.scanExpr(pkg, s.Cond, held)
		}
		body := cloneHeld(held)
		st.walkStmt(pkg, s.Body, body)
		if s.Post != nil {
			st.walkStmt(pkg, s.Post, body)
		}
	case *ast.RangeStmt:
		st.scanExpr(pkg, s.X, held)
		st.walkStmt(pkg, s.Body, cloneHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			st.walkStmt(pkg, s.Init, held)
		}
		if s.Tag != nil {
			st.scanExpr(pkg, s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				st.walkStmts(pkg, cc.Body, cloneHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				st.walkStmts(pkg, cc.Body, cloneHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				st.walkStmts(pkg, cc.Body, cloneHeld(held))
			}
		}
	case *ast.GoStmt:
		// A goroutine does not inherit the spawner's locks.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			st.walkStmt(pkg, fl.Body, make(map[types.Object]token.Pos))
		} else {
			st.handleCall(pkg, s.Call, make(map[types.Object]token.Pos))
		}
	case *ast.DeferStmt:
		if obj, op := st.lockTarget(pkg, s.Call); obj != nil {
			// defer mu.Unlock(): mu stays held to function end, which is
			// what edge generation wants; defer mu.Lock() is nonsense and
			// ignored.
			_ = op
			return
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			st.walkStmt(pkg, fl.Body, cloneHeld(held))
		} else {
			st.handleCall(pkg, s.Call, held)
		}
	case *ast.ExprStmt:
		st.scanExpr(pkg, s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			st.scanExpr(pkg, e, held)
		}
		for _, e := range s.Lhs {
			st.scanExpr(pkg, e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			st.scanExpr(pkg, e, held)
		}
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.LabeledStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				st.handleCall(pkg, call, held)
				return false
			}
			return true
		})
	}
}

// scanExpr handles every call inside an expression, outermost first.
func (st *lockOrderState) scanExpr(pkg *Package, e ast.Expr, held map[types.Object]token.Pos) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			st.handleCall(pkg, n, held)
			// Arguments (including nested calls and closures) are scanned
			// by handleCall; don't descend twice.
			return false
		case *ast.FuncLit:
			// A closure built (but not obviously invoked) here: walk it
			// under the current held set — the common shapes in this module
			// pass closures to helpers that invoke them synchronously.
			st.walkStmt(pkg, n.Body, cloneHeld(held))
			return false
		}
		return true
	})
}

// handleCall updates the held set and records edges for one call.
func (st *lockOrderState) handleCall(pkg *Package, call *ast.CallExpr, held map[types.Object]token.Pos) {
	// Evaluate nested calls in arguments and the receiver chain first.
	for _, arg := range call.Args {
		st.scanExpr(pkg, arg, held)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if inner, ok := sel.X.(*ast.CallExpr); ok {
			st.handleCall(pkg, inner, held)
		}
	}

	if obj, op := st.lockTarget(pkg, call); obj != nil {
		switch op {
		case "Lock", "RLock":
			for h := range held {
				st.addEdge(h, obj, call.Pos())
			}
			held[obj] = call.Pos()
		case "Unlock", "RUnlock":
			delete(held, obj)
		}
		return
	}
	if len(held) == 0 {
		return
	}
	callee := calleeFunc(pkg, call)
	if callee == nil {
		return
	}
	clf, ok := st.funcs[callee]
	if !ok {
		return
	}
	for h := range held {
		for acq := range clf.acquires {
			st.addEdge(h, acq, call.Pos())
		}
	}
}

func (st *lockOrderState) addEdge(from, to types.Object, pos token.Pos) {
	key := [2]types.Object{from, to}
	if _, ok := st.edges[key]; !ok {
		st.edges[key] = lockEdge{pos: pos}
	}
}

// lockEdgeRec is one materialized edge for reporting.
type lockEdgeRec struct {
	from, to types.Object
	site     lockEdge
}

// report emits self-deadlocks, two-lock inversions, and a fallback for
// longer cycles.
func (st *lockOrderState) report() {
	var edges []lockEdgeRec
	for k, e := range st.edges {
		edges = append(edges, lockEdgeRec{from: k[0], to: k[1], site: e})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].site.pos != edges[j].site.pos {
			return edges[i].site.pos < edges[j].site.pos
		}
		return st.names[edges[i].to] < st.names[edges[j].to]
	})

	has := func(a, b types.Object) (lockEdge, bool) {
		e, ok := st.edges[[2]types.Object{a, b}]
		return e, ok
	}

	inCycle := make(map[types.Object]bool)
	reportedPair := make(map[[2]types.Object]bool)
	for _, e := range edges {
		if e.from == e.to {
			st.mp.Reportf(e.site.pos, "%s is acquired on a path that already holds it — self-deadlock on re-entry; the lock hierarchy must be acyclic (DESIGN.md §12)", st.names[e.from])
			inCycle[e.from] = true
			continue
		}
		rev, ok := has(e.to, e.from)
		if !ok {
			continue
		}
		pair := [2]types.Object{e.from, e.to}
		if st.names[e.to] < st.names[e.from] {
			pair = [2]types.Object{e.to, e.from}
		}
		if reportedPair[pair] {
			continue
		}
		reportedPair[pair] = true
		inCycle[e.from], inCycle[e.to] = true, true
		revPos := st.mp.Fset.Position(rev.pos)
		st.mp.Reportf(e.site.pos, "lock-order inversion: %s is acquired while %s is held here, but %s is acquired while %s is held at %s:%d — the lock hierarchy must be acyclic (DESIGN.md §12)",
			st.names[e.to], st.names[e.from], st.names[e.from], st.names[e.to], shortFile(revPos.Filename), revPos.Line)
	}

	// Longer cycles that contain no two-lock inversion: walk strongly
	// connected components of the remaining graph.
	for _, scc := range lockSCCs(edges) {
		if len(scc) < 3 {
			continue
		}
		already := true
		for _, n := range scc {
			if !inCycle[n] {
				already = false
			}
		}
		if already {
			continue
		}
		var names []string
		for _, n := range scc {
			names = append(names, st.names[n])
		}
		sort.Strings(names)
		// Anchor the report at the lexically first edge inside the SCC.
		pos := token.NoPos
		in := make(map[types.Object]bool)
		for _, n := range scc {
			in[n] = true
		}
		for _, e := range edges {
			if in[e.from] && in[e.to] && (pos == token.NoPos || e.site.pos < pos) {
				pos = e.site.pos
			}
		}
		st.mp.Reportf(pos, "lock-order cycle through %s — the lock hierarchy must be acyclic (DESIGN.md §12)", strings.Join(names, " -> "))
	}
}

// lockSCCs computes strongly connected components with >1 node (Tarjan).
func lockSCCs(edges []lockEdgeRec) [][]types.Object {
	adj := make(map[types.Object][]types.Object)
	nodes := make(map[types.Object]bool)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from], nodes[e.to] = true, true
	}
	index := make(map[types.Object]int)
	low := make(map[types.Object]int)
	onStack := make(map[types.Object]bool)
	var stack []types.Object
	var sccs [][]types.Object
	next := 0

	var strongconnect func(v types.Object)
	strongconnect = func(v types.Object) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []types.Object
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}

// shortFile trims a path to its final two segments for diagnostic text.
func shortFile(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return strings.Join(parts, "/")
}
