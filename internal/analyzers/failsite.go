package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// FailSite keeps the crash-atomicity fault matrix honest. The changeset
// discipline (DESIGN.md §11) is that every staged view mutation in the
// flush path consults a FailPoint site first, each site has a stable
// unique name, and the name set is exactly what the fault matrices in
// view/atomic_test.go (wantSites) and internal/oracle (flushFaultSites)
// exercise — drift in either direction means an untested crash point or a
// matrix entry testing nothing.
//
// Concretely, over packages named "view" and "oracle":
//
//   - every call to a function with a `site string` parameter passes a
//     string literal (or forwards its own site parameter), so the site
//     name set is statically enumerable;
//   - a site name always identifies one mutation kind (insertRow vs
//     deleteKey vs foldGroups);
//   - every site-less staged mutation — one of the primitives of the
//     rel.Store a view's rows or an aggregation view's groups live in, or
//     the view's link hook (stagedMutations), or a write into one of the
//     store's slots (through the *rel.Slot it hands out), reached through a
//     parameter or receiver — is preceded in its function by a FailPoint
//     consult (a registration-time fill is the vetted exception, annotated
//     in source). A primitive may be built from primitives of its own type,
//     and a slot is written only by the primitives: the guard is owed by
//     whoever calls in from outside;
//   - the consulted-site set equals the union of wantSites in the view
//     package's test files and equals oracle's flushFaultSites list.
var FailSite = &Analyzer{
	Name:      "failsite",
	Doc:       "verifies FailPoint site discipline and fault-matrix site-name parity",
	RunModule: runFailSite,
}

// stagedMutations names the site-less primitives that change what a stored
// view or an aggregation view holds: the rel.Store's insert, unlogged fill,
// remove (which takes a row out of sight and leaves it in its slot until its
// changeset ends) and in-place update, and the view's link hook, which files
// a row in the view's own structures or takes it out. The slots themselves
// live in the store's slab: writing one is the primitives' job (slotWrite).
// The store's rollback and commit walk run inside package rel, where this
// check does not look: the rollback never consults the fault hook, and
// releasing an unlinked slot at commit changes nothing a reader can see.
var stagedMutations = map[string]bool{
	"Insert":   true,
	"Fill":     true,
	"Remove":   true,
	"Update":   true,
	"linkSlot": true,
}

// siteUse records where a site name is consulted and through which kind of
// call.
type siteUse struct {
	pos  token.Pos
	kind string
}

func runFailSite(mp *ModulePass) error {
	var viewPkgs, oraclePkgs []*Package
	for _, pkg := range mp.Pkgs {
		switch pkg.Types.Name() {
		case "view":
			viewPkgs = append(viewPkgs, pkg)
		case "oracle":
			oraclePkgs = append(oraclePkgs, pkg)
		}
	}
	if len(viewPkgs) == 0 {
		return nil
	}

	used := make(map[string]siteUse) // first use of each site name
	kinds := make(map[string][]string)
	for _, pkg := range viewPkgs {
		failSitePackage(mp, pkg, used, kinds)
	}

	// Kind consistency: one site name, one mutation kind. The bare consult
	// (fail) pairs with any kind.
	var names []string
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mut := make(map[string]bool)
		for _, k := range kinds[name] {
			if k != "fail" {
				mut[k] = true
			}
		}
		if len(mut) > 1 {
			var ks []string
			for k := range mut {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			mp.Reportf(used[name].pos, "failpoint site %q is used with multiple mutation kinds (%s) — site names must identify a unique staged mutation (DESIGN.md §12)",
				name, strings.Join(ks, ", "))
		}
	}

	// Fault-matrix parity, both directions, against both matrices.
	matrix, matrixFound := wantSitesFromTests(mp, viewPkgs)
	if matrixFound {
		reportParity(mp, used, matrix, "view test fault matrix (wantSites)")
	}
	oracleList, oracleFound := flushFaultSitesList(mp, oraclePkgs)
	if oracleFound {
		reportParity(mp, used, oracleList, "oracle fault matrix (flushFaultSites)")
	}
	return nil
}

// failSitePackage checks site-argument discipline and the mutation guard in
// one view package, accumulating consulted sites.
func failSitePackage(mp *ModulePass, pkg *Package, used map[string]siteUse, kinds map[string][]string) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			owned := funcParamObjs(pkg, fd)
			siteParam := siteParamObj(pkg, fd)

			// Pass 1: site-bearing calls, in source order.
			var consultPos []token.Pos
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pkg, call)
				idx := siteParamIndex(callee)
				if idx < 0 || idx >= len(call.Args) {
					return true
				}
				consultPos = append(consultPos, call.Pos())
				arg := call.Args[idx]
				switch a := arg.(type) {
				case *ast.BasicLit:
					if a.Kind == token.STRING {
						name, err := strconv.Unquote(a.Value)
						if err == nil {
							if _, ok := used[name]; !ok {
								used[name] = siteUse{pos: a.Pos(), kind: callee.Name()}
							}
							kinds[name] = append(kinds[name], callee.Name())
							return true
						}
					}
				case *ast.Ident:
					if siteParam != nil && pkg.Info.ObjectOf(a) == siteParam {
						return true // forwarding our own site parameter
					}
				}
				mp.Reportf(arg.Pos(), "failpoint site argument of %s must be a string literal (or forward the caller's site parameter) so the fault matrix can enumerate every crash point (DESIGN.md §12)", callee.Name())
				return true
			})

			// Pass 2: site-less staged mutations must follow a consult.
			guarded := func(pos token.Pos) bool {
				for _, c := range consultPos {
					if c < pos {
						return true
					}
				}
				return false
			}
			slots := make(map[types.Object]bool) // locals holding an owned *rel.Slot
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					name := sel.Sel.Name
					if !stagedMutations[name] {
						return true
					}
					callee := calleeFunc(pkg, n)
					if siteParamIndex(callee) >= 0 {
						return true // the site-bearing changeset wrapper
					}
					if sameReceiverType(pkg, fd, callee) {
						return true // a primitive built from its type's primitives
					}
					if !rootedAt(pkg, sel.X, owned) {
						return true // a locally built staging copy
					}
					if !guarded(n.Pos()) {
						mp.Reportf(n.Pos(), "staged view mutation %s is not preceded by a FailPoint consult in %s — crash atomicity requires a fail(site) before every staged write (DESIGN.md §12)",
							name, fd.Name.Name)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if slotWrite(pkg, lhs, owned, slots) && !stagedMutations[fd.Name.Name] && !guarded(n.Pos()) {
							mp.Reportf(n.Pos(), "staged write into a view slab slot is not preceded by a FailPoint consult in %s — only the store's primitives write slots, and crash atomicity requires a fail(site) before every staged write (DESIGN.md §12)", fd.Name.Name)
						}
					}
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && i < len(n.Rhs) && len(n.Lhs) == len(n.Rhs) && isSlotPtr(pkg.Info.TypeOf(n.Rhs[i])) && slotWrite(pkg, n.Rhs[i], owned, slots) {
							slots[pkg.Info.ObjectOf(id)] = true
						}
					}
				}
				return true
			})
		}
	}
}

// sameReceiverType reports whether fd is a method of the type callee is a
// method of.
func sameReceiverType(pkg *Package, fd *ast.FuncDecl, callee *types.Func) bool {
	if callee == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	recv := callee.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	deref := func(t types.Type) types.Type {
		if p, ok := t.(*types.Pointer); ok {
			return p.Elem()
		}
		return t
	}
	return types.Identical(deref(recv.Type()), deref(pkg.Info.TypeOf(fd.Recv.List[0].Type)))
}

// funcParamObjs collects the receiver and parameter objects of fd.
func funcParamObjs(pkg *Package, fd *ast.FuncDecl) map[types.Object]bool {
	owned := make(map[types.Object]bool)
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					owned[obj] = true
				}
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return owned
}

// siteParamObj returns the object of fd's own `site string` parameter, or
// nil.
func siteParamObj(pkg *Package, fd *ast.FuncDecl) types.Object {
	if fd.Type.Params == nil {
		return nil
	}
	for _, f := range fd.Type.Params.List {
		for _, name := range f.Names {
			if name.Name == "site" {
				return pkg.Info.Defs[name]
			}
		}
	}
	return nil
}

// siteParamIndex returns the positional index of fn's `site string`
// parameter, or -1.
func siteParamIndex(fn *types.Func) int {
	if fn == nil {
		return -1
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if p.Name() == "site" {
			if b, ok := p.Type().Underlying().(*types.Basic); ok && b.Kind() == types.String {
				return i
			}
		}
	}
	return -1
}

// rootedAt reports whether e's selector/index chain bottoms out in one of
// the owned (parameter or receiver) objects — i.e. the mutation targets
// committed state handed in, not a locally built copy.
func rootedAt(pkg *Package, e ast.Expr, owned map[types.Object]bool) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return owned[pkg.Info.ObjectOf(x)]
		default:
			return false
		}
	}
}

// isSlotPtr reports whether t is *Slot of a package named rel: the slot a
// rel.Slab hands out.
func isSlotPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Slot" && named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == "rel"
}

// slotWrite reports whether lhs writes into a slab slot of committed state:
// through a call that returns an owned *rel.Slot, or through a local
// holding one.
func slotWrite(pkg *Package, lhs ast.Expr, owned, slots map[types.Object]bool) bool {
	for {
		switch x := lhs.(type) {
		case *ast.SelectorExpr:
			lhs = x.X
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		case *ast.ParenExpr:
			lhs = x.X
		case *ast.CallExpr:
			return isSlotPtr(pkg.Info.TypeOf(x)) && rootedAt(pkg, x.Fun, owned)
		case *ast.Ident:
			return slots[pkg.Info.ObjectOf(x)]
		default:
			return false
		}
	}
}

// declaredSite is one site name in a fault matrix, at its declaration.
type declaredSite struct {
	pos token.Pos
}

// wantSitesFromTests parses the _test.go files alongside each view package
// (the loader skips them, so the pass reads them itself) and collects every
// string inside a wantSites: []string{...} composite.
func wantSitesFromTests(mp *ModulePass, viewPkgs []*Package) (map[string]declaredSite, bool) {
	sites := make(map[string]declaredSite)
	found := false
	for _, pkg := range viewPkgs {
		ents, err := os.ReadDir(pkg.Dir)
		if err != nil {
			continue
		}
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(mp.Fset, filepath.Join(pkg.Dir, e.Name()), nil, 0)
			if err != nil {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				kv, ok := n.(*ast.KeyValueExpr)
				if !ok {
					return true
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || key.Name != "wantSites" {
					return true
				}
				cl, ok := kv.Value.(*ast.CompositeLit)
				if !ok {
					return true
				}
				for _, el := range cl.Elts {
					if lit, ok := el.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if name, err := strconv.Unquote(lit.Value); err == nil {
							found = true
							if _, ok := sites[name]; !ok {
								sites[name] = declaredSite{pos: lit.Pos()}
							}
						}
					}
				}
				return true
			})
		}
	}
	return sites, found
}

// flushFaultSitesList finds oracle's canonical flushFaultSites list and
// flags duplicate entries in it.
func flushFaultSitesList(mp *ModulePass, oraclePkgs []*Package) (map[string]declaredSite, bool) {
	sites := make(map[string]declaredSite)
	found := false
	for _, pkg := range oraclePkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if name.Name != "flushFaultSites" || i >= len(vs.Values) {
							continue
						}
						cl, ok := vs.Values[i].(*ast.CompositeLit)
						if !ok {
							continue
						}
						found = true
						for _, el := range cl.Elts {
							lit, ok := el.(*ast.BasicLit)
							if !ok || lit.Kind != token.STRING {
								continue
							}
							s, err := strconv.Unquote(lit.Value)
							if err != nil {
								continue
							}
							if _, dup := sites[s]; dup {
								mp.Reportf(lit.Pos(), "duplicate failpoint site %q in flushFaultSites — site names must be unique (DESIGN.md §12)", s)
								continue
							}
							sites[s] = declaredSite{pos: lit.Pos()}
						}
					}
				}
			}
		}
	}
	return sites, found
}

// reportParity flags drift between the consulted-site set and one declared
// matrix, in both directions.
func reportParity(mp *ModulePass, used map[string]siteUse, declared map[string]declaredSite, what string) {
	var names []string
	for name := range used {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := declared[name]; !ok {
			mp.Reportf(used[name].pos, "failpoint site %q is consulted in the flush path but missing from the %s — an untested crash point (DESIGN.md §12)", name, what)
		}
	}
	names = names[:0]
	for name := range declared {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := used[name]; !ok {
			mp.Reportf(declared[name].pos, "the %s lists site %q, which no flush-path mutation consults — a stale matrix entry (DESIGN.md §12)", what, name)
		}
	}
}
