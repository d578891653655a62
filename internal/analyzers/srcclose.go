package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SrcClose is a path-sensitive lifecycle check for the two resources the
// maintenance path opens constantly: obs spans (StartSpan/Child ... End)
// and executor sources (NewPipeline or Program.Start ... Close). A span left
// un-Ended skews every duration above it; a source left un-Closed leaks
// operator state and its span — a class tests can only catch for the paths
// they happen to execute. The analyzer walks every return path, including
// error exits, and reports resources still open.
//
// The abstraction: an open binds a variable; a close is v.End()/v.Close()
// (also at the end of a SetStr/SetInt chain, in an if-init, or inside a
// deferred call); `defer v.End()` retires v on all paths; returning v (or
// anything mentioning v) transfers ownership to the caller; a closure that
// closes v takes ownership too. Branches are walked with cloned open sets
// and merged with may-be-open (union) semantics, so a close on only one arm
// still flags the other. One idiom-specific rule: after
// `v, err := NewPipeline(...)` or `v, err := prog.Start(...)`, the
// `err != nil` arm treats v as never opened (a failed constructor returns
// nothing to close) until err is reassigned.
var SrcClose = &Analyzer{
	Name: "srcclose",
	Doc:  "flags spans and sources not closed on every return path",
	Run:  runSrcClose,
}

// scRes is one tracked open resource.
type scRes struct {
	name     string
	openLine int
	errVar   types.Object // paired error of the opening call, nil once stale
}

type scOpen map[*types.Var]*scRes

func (o scOpen) clone() scOpen {
	c := make(scOpen, len(o))
	for k, v := range o {
		c[k] = v
	}
	return c
}

type srcCloseScope struct {
	pass *Pass
}

func runSrcClose(pass *Pass) error {
	sc := &srcCloseScope{pass: pass}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			sc.checkBody(fn.Body)
		}
	}
	return nil
}

// checkBody analyzes one function (or closure) body as its own scope.
func (sc *srcCloseScope) checkBody(body *ast.BlockStmt) {
	open := make(scOpen)
	terminated := sc.walkStmts(body.List, open)
	if !terminated {
		sc.reportOpen(open, body.Rbrace)
	}
}

func (sc *srcCloseScope) reportOpen(open scOpen, pos token.Pos) {
	var rs []*scRes
	for _, r := range open {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].openLine < rs[j].openLine })
	for _, r := range rs {
		sc.pass.Reportf(pos, "%s opened at line %d is not closed on this return path — spans and sources must be released on every path, including error exits (DESIGN.md §12)", r.name, r.openLine)
	}
}

// walkStmts walks statements in order; the returned bool reports whether
// every path through the list terminates (return/panic) before the end.
func (sc *srcCloseScope) walkStmts(stmts []ast.Stmt, open scOpen) bool {
	for _, s := range stmts {
		if sc.walkStmt(s, open) {
			return true
		}
	}
	return false
}

func (sc *srcCloseScope) walkStmt(s ast.Stmt, open scOpen) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return sc.walkStmts(s.List, open)

	case *ast.AssignStmt:
		sc.handleCloses(s, open)
		sc.handleFuncLits(s, open)
		// Reassigning a paired error variable severs the failed-open link.
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := sc.pass.Info.ObjectOf(id); obj != nil {
					for _, r := range open {
						if r.errVar == obj && !sc.opensFrom(s) {
							r.errVar = nil
						}
					}
				}
			}
		}
		sc.handleOpens(s, open)
		return false

	case *ast.ExprStmt:
		sc.handleCloses(s, open)
		sc.handleFuncLits(s, open)
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
		return false

	case *ast.DeferStmt:
		// A deferred close covers every path from here on; approximate as
		// covering the whole function (defers in this module directly
		// follow their open).
		for _, v := range sc.closeTargets(s) {
			delete(open, v)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			sc.checkBody(fl.Body)
		}
		return false

	case *ast.GoStmt:
		// A goroutine that closes v owns it now.
		for _, v := range sc.closeTargets(s) {
			delete(open, v)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			sc.checkBody(fl.Body)
		}
		return false

	case *ast.ReturnStmt:
		sc.handleCloses(s, open)
		for v, r := range open {
			if sc.mentions(s, v) {
				// Ownership transfers to the caller.
				_ = r
				delete(open, v)
			}
		}
		sc.reportOpen(open, s.Pos())
		return true

	case *ast.IfStmt:
		if s.Init != nil {
			sc.walkStmt(s.Init, open)
		}
		sc.handleFuncLitsIn(s.Cond, open)
		thenOpen := open.clone()
		if errObj := sc.errNilCheck(s.Cond); errObj != nil {
			// The failed-constructor arm: the paired resource was never
			// really opened.
			for v, r := range thenOpen {
				if r.errVar == errObj {
					delete(thenOpen, v)
				}
			}
		}
		if nilObj := sc.isNilCheck(s.Cond); nilObj != nil {
			// `if v == nil { ... }`: a nil span/source has nothing to close.
			for v := range thenOpen {
				if types.Object(v) == nilObj {
					delete(thenOpen, v)
				}
			}
		}
		thenTerm := sc.walkStmt(s.Body, thenOpen)
		if s.Else == nil {
			if !thenTerm {
				mergeOpen(open, thenOpen)
			}
			return false
		}
		elseOpen := open.clone()
		elseTerm := sc.walkStmt(s.Else, elseOpen)
		if thenTerm && elseTerm {
			return true
		}
		for v := range open {
			delete(open, v)
		}
		if !thenTerm {
			mergeOpen(open, thenOpen)
		}
		if !elseTerm {
			mergeOpen(open, elseOpen)
		}
		return false

	case *ast.ForStmt:
		if s.Init != nil {
			sc.walkStmt(s.Init, open)
		}
		body := open.clone()
		sc.walkStmt(s.Body, body)
		mergeOpen(open, body)
		return false

	case *ast.RangeStmt:
		body := open.clone()
		sc.walkStmt(s.Body, body)
		mergeOpen(open, body)
		return false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var clauses []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			if sw.Init != nil {
				sc.walkStmt(sw.Init, open)
			}
			clauses = sw.Body.List
		case *ast.TypeSwitchStmt:
			clauses = sw.Body.List
		case *ast.SelectStmt:
			clauses = sw.Body.List
		}
		pre := open.clone()
		allTerm := len(clauses) > 0
		hasDefault := false
		for _, c := range clauses {
			var body []ast.Stmt
			switch cc := c.(type) {
			case *ast.CaseClause:
				body = cc.Body
				if cc.List == nil {
					hasDefault = true
				}
			case *ast.CommClause:
				body = cc.Body
				if cc.Comm == nil {
					hasDefault = true
				}
			}
			cOpen := pre.clone()
			if !sc.walkStmts(body, cOpen) {
				allTerm = false
				mergeOpen(open, cOpen)
			}
		}
		return allTerm && hasDefault

	case *ast.LabeledStmt:
		return sc.walkStmt(s.Stmt, open)

	case *ast.DeclStmt:
		sc.handleCloses(s, open)
		return false
	}
	return false
}

// opensFrom reports whether the statement's rhs is an opening call, so the
// err-link severing skips the open itself.
func (sc *srcCloseScope) opensFrom(s *ast.AssignStmt) bool {
	for _, rhs := range s.Rhs {
		if call, ok := rhs.(*ast.CallExpr); ok {
			if sc.openKind(call) != "" {
				return true
			}
		}
	}
	return false
}

func mergeOpen(dst, src scOpen) {
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
}

// errNilCheck matches `x != nil` over an identifier and returns x's object.
func (sc *srcCloseScope) errNilCheck(cond ast.Expr) types.Object {
	return sc.identNilCmp(cond, token.NEQ)
}

// isNilCheck matches `x == nil` over an identifier and returns x's object.
func (sc *srcCloseScope) isNilCheck(cond ast.Expr) types.Object {
	return sc.identNilCmp(cond, token.EQL)
}

func (sc *srcCloseScope) identNilCmp(cond ast.Expr, op token.Token) types.Object {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != op {
		return nil
	}
	id, ok := be.X.(*ast.Ident)
	if !ok {
		return nil
	}
	if lit, ok := be.Y.(*ast.Ident); !ok || lit.Name != "nil" {
		return nil
	}
	return sc.pass.Info.ObjectOf(id)
}

// openKind classifies a call as opening a span ("span"), a source
// ("source"), or nothing ("").
func (sc *srcCloseScope) openKind(call *ast.CallExpr) string {
	for c := call; ; {
		switch calleeName(c) {
		case "StartSpan", "Child":
			if isSpanPtr(sc.pass.Info.TypeOf(call)) {
				return "span"
			}
			return ""
		case "NewPipeline":
			return "source"
		case "Start":
			// (*exec.Program).Start carries NewPipeline's obligation; its
			// Source result tells it from any other method called Start.
			if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sc.pass.Info.Selections[sel] != nil && returnsSource(sc.pass.Info.TypeOf(call)) {
				return "source"
			}
			return ""
		}
		sel, ok := c.Fun.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		inner, ok := sel.X.(*ast.CallExpr)
		if !ok {
			return ""
		}
		c = inner
	}
}

// isSpanPtr reports whether t is *Span for a named struct Span.
func isSpanPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Name() == "Span"
}

// isSourceType reports whether t is (an interface or named type called)
// Source.
func isSourceType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Source"
}

// returnsSource reports whether t, a call's result type, is Source or a
// tuple led by one.
func returnsSource(t types.Type) bool {
	if tup, ok := t.(*types.Tuple); ok && tup.Len() > 0 {
		t = tup.At(0).Type()
	}
	return isSourceType(t)
}

// handleOpens records resources bound by an assignment.
func (sc *srcCloseScope) handleOpens(s *ast.AssignStmt, open scOpen) {
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	kind := sc.openKind(call)
	if kind == "" {
		return
	}
	id, ok := s.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	v, ok := sc.pass.Info.ObjectOf(id).(*types.Var)
	if !ok {
		return
	}
	switch kind {
	case "span":
		if !isSpanPtr(v.Type()) {
			return
		}
	case "source":
		if !isSourceType(v.Type()) {
			return
		}
	}
	r := &scRes{name: v.Name(), openLine: sc.pass.Line(call.Pos())}
	if len(s.Lhs) == 2 {
		if errID, ok := s.Lhs[1].(*ast.Ident); ok && errID.Name != "_" {
			r.errVar = sc.pass.Info.ObjectOf(errID)
		}
	}
	open[v] = r
}

// closeTargets finds every variable closed anywhere inside n: a call to
// End/Close whose receiver chain (peeling SetStr/SetInt-style chains)
// bottoms out in an identifier.
func (sc *srcCloseScope) closeTargets(n ast.Node) []*types.Var {
	var out []*types.Var
	ast.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "End" && sel.Sel.Name != "Close" {
			return true
		}
		recv := sel.X
		for {
			if inner, ok := recv.(*ast.CallExpr); ok {
				if isel, ok := inner.Fun.(*ast.SelectorExpr); ok {
					recv = isel.X
					continue
				}
			}
			break
		}
		if id, ok := recv.(*ast.Ident); ok {
			if v, ok := sc.pass.Info.ObjectOf(id).(*types.Var); ok {
				out = append(out, v)
			}
		}
		return true
	})
	return out
}

// handleCloses removes every resource closed inside the statement.
func (sc *srcCloseScope) handleCloses(n ast.Node, open scOpen) {
	for _, v := range sc.closeTargets(n) {
		delete(open, v)
	}
}

// handleFuncLits analyzes closures in the statement as their own scopes; a
// closure that closes an outer resource takes ownership of it.
func (sc *srcCloseScope) handleFuncLits(s ast.Stmt, open scOpen) {
	ast.Inspect(s, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			for _, v := range sc.closeTargets(fl) {
				delete(open, v)
			}
			sc.checkBody(fl.Body)
			return false
		}
		return true
	})
}

func (sc *srcCloseScope) handleFuncLitsIn(e ast.Expr, open scOpen) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			for _, v := range sc.closeTargets(fl) {
				delete(open, v)
			}
			sc.checkBody(fl.Body)
			return false
		}
		return true
	})
}

// mentions reports whether any identifier in n resolves to v.
func (sc *srcCloseScope) mentions(n ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && sc.pass.Info.ObjectOf(id) == v {
			found = true
		}
		return !found
	})
	return found
}
