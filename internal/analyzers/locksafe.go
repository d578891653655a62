package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockSafe flags mutex and WaitGroup misuse patterns that matter for the
// write path's goroutines — the component workers of a flush and the
// writers that stage into and flush one WriteBatch:
//
//   - a sync.Mutex/RWMutex Lock or RLock with no matching Unlock/RUnlock in
//     the same function scope (directly, deferred, or inside a deferred
//     closure). Locks released by a different function defeat local
//     reasoning and leak on early returns and panics.
//   - sync.WaitGroup.Add called inside the goroutine it accounts for: Wait
//     can observe the counter before the goroutine is scheduled, so Add
//     must precede the go statement.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "flags unpaired mutex locks and WaitGroup.Add inside the accounted goroutine",
	Run:  runLockSafe,
}

// lockKey identifies one lock balance bucket: the receiver expression text
// plus whether it is the read side of an RWMutex.
type lockKey struct {
	recv string
	read bool
}

func runLockSafe(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					lockScope(pass, n.Body)
				}
			case *ast.FuncLit:
				lockScope(pass, n.Body)
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkGoAdd(pass, lit)
				}
			}
			return true
		})
	}
	return nil
}

// isSyncType reports whether e's type (after deref) is a named type from
// package sync with one of the given names.
func isSyncType(pass *Pass, e ast.Expr, names ...string) bool {
	tv, ok := pass.Info.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	for _, name := range names {
		if n.Obj().Name() == name {
			return true
		}
	}
	return false
}

// lockScope balances Lock/Unlock pairs within one function body, not
// descending into nested function literals (each gets its own scope), but
// crediting releases performed inside deferred closures to this scope.
func lockScope(pass *Pass, body *ast.BlockStmt) {
	locks := make(map[lockKey][]token.Pos)
	unlocks := make(map[lockKey]int)

	note := func(call *ast.CallExpr, acquiresToo bool) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		var read, acquire bool
		switch sel.Sel.Name {
		case "Lock":
			acquire = true
		case "RLock":
			acquire, read = true, true
		case "Unlock":
		case "RUnlock":
			read = true
		default:
			return
		}
		if !isSyncType(pass, sel.X, "Mutex", "RWMutex") {
			return
		}
		key := lockKey{types.ExprString(sel.X), read}
		if acquire {
			if acquiresToo {
				locks[key] = append(locks[key], call.Pos())
			}
		} else {
			unlocks[key]++
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				// defer func() { ... mu.Unlock() ... }() releases on behalf
				// of this scope; only releases are credited, acquisitions
				// inside a deferred closure are out of scope.
				ast.Inspect(lit.Body, func(k ast.Node) bool {
					if _, ok := k.(*ast.FuncLit); ok {
						return false
					}
					if c, ok := k.(*ast.CallExpr); ok {
						note(c, false)
					}
					return true
				})
				return false
			}
		case *ast.CallExpr:
			note(n, true)
		}
		return true
	})

	for key, poss := range locks {
		matched := unlocks[key]
		if matched >= len(poss) {
			continue
		}
		name, release := "Lock", "Unlock"
		if key.read {
			name, release = "RLock", "RUnlock"
		}
		for _, p := range poss[matched:] {
			pass.Reportf(p, "%s.%s() without a matching %s in this function; release in the same scope (ideally deferred) so early returns and panics cannot leak the lock", key.recv, name, release)
		}
	}
}

// checkGoAdd reports WaitGroup.Add calls placed inside a go-launched
// closure.
func checkGoAdd(pass *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok {
			if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" && isSyncType(pass, sel.X, "WaitGroup") {
				pass.Reportf(c.Pos(), "%s.Add inside the goroutine it accounts for — Wait may return before this Add is scheduled; call Add before the go statement", types.ExprString(sel.X))
			}
		}
		return true
	})
}
