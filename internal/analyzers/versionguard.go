package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// VersionGuard protects the version-guarded Prevalidated() flush fast path:
// pipeline.Queue skips re-validation at flush when Catalog.version has not
// moved since planning, so every mutation of committed catalog state MUST
// bump the version or the fast path silently reuses stale validation.
//
// The pass runs over packages named "rel" (the catalog layer owns all
// committed state; other packages can only reach it through rel's exported
// API). A mutation is any write — assignment, ++/--, delete() — through a
// field whose owning struct is Catalog, Table or Index, however deep the
// write lands below it: through a method's returned pointer
// (*t.slab.At(h) = …), through a local pointer, slice or map taken from the
// field (s := t.slab.At(h); s.Row = …), or by calling, on the field, a
// method that writes its own receiver (t.slab.Release(h)). So a table's
// slab, handle map and log are committed state like its rows ever were. A
// bump is a write to Catalog.version. Both properties are closed
// transitively over the in-package call graph, and every exported function
// from which a mutation site is reachable must also reach a bump: unexported
// helpers like Table.insert are exempt exactly as long as all their exported
// entry points (Insert, Rollback, ...) bump.
var VersionGuard = &Analyzer{
	Name:      "versionguard",
	Doc:       "flags exported catalog mutators that do not bump Catalog.version",
	RunModule: runVersionGuard,
}

// versionGuardedTypes are the structs whose fields hold committed state.
var versionGuardedTypes = map[string]bool{"Catalog": true, "Table": true, "Index": true}

type vgFunc struct {
	pkg      *Package
	decl     *ast.FuncDecl
	fn       *types.Func
	bumps    bool
	mutation token.Pos // first direct mutation site, NoPos if none
	mutDesc  string    // "Table.rows" — the field the site writes
	callees  []*types.Func
	// aliases maps a local holding a pointer, slice or map taken from a
	// guarded field to that field's description.
	aliases map[types.Object]string
	// writesRecv reports a method that writes through its own receiver.
	writesRecv bool
}

func runVersionGuard(mp *ModulePass) error {
	for _, pkg := range mp.Pkgs {
		if pkg.Types.Name() == "rel" {
			versionGuardPackage(mp, pkg)
		}
	}
	return nil
}

func versionGuardPackage(mp *ModulePass, pkg *Package) {
	funcs := make(map[*types.Func]*vgFunc)
	var order []*vgFunc
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
			vf := &vgFunc{pkg: pkg, decl: fd, fn: fn}
			funcs[fn] = vf
			order = append(order, vf)
		}
	}

	// Which methods write through their receiver, so that calling one on a
	// guarded field writes that field.
	for _, vf := range order {
		recv := vgRecvObj(pkg, vf.decl)
		if recv == nil {
			continue
		}
		ast.Inspect(vf.decl.Body, func(n ast.Node) bool {
			for _, w := range vgWritten(n) {
				if root, _ := vgRoot(pkg, w); root == recv {
					vf.writesRecv = true
				}
			}
			return !vf.writesRecv
		})
	}

	for _, vf := range order {
		vf.aliases = make(map[types.Object]string)
		ast.Inspect(vf.decl.Body, func(n ast.Node) bool {
			for _, w := range vgWritten(n) {
				vgRecordWrite(pkg, vf, w, n.Pos())
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				vgRecordAliases(pkg, vf, n)
			case *ast.CallExpr:
				vgRecordAtomicBump(pkg, vf, n)
				if callee := calleeFunc(pkg, n); callee != nil {
					vf.callees = append(vf.callees, callee)
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if c := funcs[callee]; ok && c != nil && c.writesRecv {
						vgRecordWrite(pkg, vf, sel.X, n.Pos())
					}
				}
			}
			return true
		})
	}

	// Close bumps over the call graph: f bumps if it writes version or
	// calls a function that (transitively) does.
	for changed := true; changed; {
		changed = false
		for _, vf := range order {
			if vf.bumps {
				continue
			}
			for _, callee := range vf.callees {
				if c, ok := funcs[callee]; ok && c.bumps {
					vf.bumps = true
					changed = true
					break
				}
			}
		}
	}

	// Reachability: which functions can reach a mutation site.
	reachesMut := make(map[*vgFunc]*vgFunc) // func -> witness mutator
	for _, vf := range order {
		if vf.mutation != token.NoPos {
			reachesMut[vf] = vf
		}
	}
	for changed := true; changed; {
		changed = false
		for _, vf := range order {
			if _, ok := reachesMut[vf]; ok {
				continue
			}
			for _, callee := range vf.callees {
				if c, ok := funcs[callee]; ok {
					if w, ok := reachesMut[c]; ok {
						reachesMut[vf] = w
						changed = true
						break
					}
				}
			}
		}
	}

	sort.Slice(order, func(i, j int) bool { return order[i].decl.Pos() < order[j].decl.Pos() })
	for _, vf := range order {
		if !vf.decl.Name.IsExported() {
			continue
		}
		w, ok := reachesMut[vf]
		if !ok || vf.bumps {
			continue
		}
		mp.Reportf(vf.decl.Name.Pos(), "exported %s reaches a mutation of committed %s state (line %d) without bumping Catalog.version — the Prevalidated() flush fast path would reuse stale validation (DESIGN.md §12)",
			funcDisplayName(vf), w.mutDesc, mp.Line(w.mutation))
	}
}

// vgWritten returns the expressions a statement writes: assignment and
// ++/-- targets, and the map of a delete().
func vgWritten(n ast.Node) []ast.Expr {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return n.Lhs
	case *ast.IncDecStmt:
		return []ast.Expr{n.X}
	case *ast.CallExpr:
		if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
			return n.Args[:1]
		}
	}
	return nil
}

// vgRoot peels a written expression down to the variable it is rooted at —
// through field selections, indexing, dereferences and method calls (a
// method's result is reached through its receiver) — and returns it with the
// outermost guarded field on the way, "Table.slab", or "" if none.
func vgRoot(pkg *Package, e ast.Expr) (types.Object, string) {
	guarded := ""
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return nil, guarded
			}
			e = sel.X
		case *ast.SelectorExpr:
			if guarded == "" {
				guarded = vgGuardedField(pkg, x)
			}
			e = x.X
		case *ast.Ident:
			return pkg.Info.ObjectOf(x), guarded
		default:
			return nil, guarded
		}
	}
}

// vgGuardedField returns "Owner.field" when sel selects a field of a
// guarded struct, and "" otherwise.
func vgGuardedField(pkg *Package, sel *ast.SelectorExpr) string {
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	owner := s.Recv()
	if p, ok := owner.(*types.Pointer); ok {
		owner = p.Elem()
	}
	named, ok := owner.(*types.Named)
	if !ok || named.Obj().Pkg() != pkg.Types || !versionGuardedTypes[named.Obj().Name()] {
		return ""
	}
	return named.Obj().Name() + "." + s.Obj().Name()
}

// vgRecvObj returns the object of fd's named receiver, or nil.
func vgRecvObj(pkg *Package, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pkg.Info.Defs[fd.Recv.List[0].Names[0]]
}

// vgRecordWrite classifies one written expression: a bump if it writes
// Catalog.version, a mutation if it lands in a guarded field or in a local
// aliasing one.
func vgRecordWrite(pkg *Package, vf *vgFunc, lhs ast.Expr, pos token.Pos) {
	root, desc := vgRoot(pkg, lhs)
	if desc == "" {
		desc = vf.aliases[root]
	}
	switch {
	case desc == "":
	case desc == "Catalog.version":
		vf.bumps = true
	case vf.mutation == token.NoPos:
		vf.mutation, vf.mutDesc = pos, desc
	}
}

// vgRecordAliases records the locals an assignment points into a guarded
// field: a pointer, slice or map taken from it, or from another alias. A
// pointer to a guarded struct (t := c.tables[name]) is no alias: a write
// through it lands in that struct's own fields, which are checked as such.
func vgRecordAliases(pkg *Package, vf *vgFunc, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		switch t := pkg.Info.TypeOf(as.Rhs[i]).Underlying().(type) {
		case *types.Pointer:
			if named, ok := t.Elem().(*types.Named); ok && named.Obj().Pkg() == pkg.Types && versionGuardedTypes[named.Obj().Name()] {
				continue
			}
		case *types.Slice, *types.Map:
		default:
			continue
		}
		root, desc := vgRoot(pkg, as.Rhs[i])
		if desc == "" {
			desc = vf.aliases[root]
		}
		if obj := pkg.Info.ObjectOf(id); obj != nil && desc != "" {
			vf.aliases[obj] = desc
		}
	}
}

// vgRecordAtomicBump recognizes the atomic bump form c.version.Add(1) (or
// .Store): Catalog.version became an atomic counter when independent flush
// components started bumping it concurrently, so the bump is a method call
// on the field rather than an assignment or ++.
func vgRecordAtomicBump(pkg *Package, vf *vgFunc, call *ast.CallExpr) {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (fun.Sel.Name != "Add" && fun.Sel.Name != "Store") {
		return
	}
	sel, ok := fun.X.(*ast.SelectorExpr)
	if !ok {
		return
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	owner := s.Recv()
	if p, ok := owner.(*types.Pointer); ok {
		owner = p.Elem()
	}
	named, ok := owner.(*types.Named)
	if !ok || named.Obj().Pkg() != pkg.Types {
		return
	}
	if named.Obj().Name() == "Catalog" && s.Obj().Name() == "version" {
		vf.bumps = true
	}
}

// funcDisplayName renders "Table.CreateIndex" for methods and "LoadCatalog"
// for plain functions.
func funcDisplayName(vf *vgFunc) string {
	if vf.decl.Recv != nil && len(vf.decl.Recv.List) > 0 {
		t := vf.decl.Recv.List[0].Type
		if se, ok := t.(*ast.StarExpr); ok {
			t = se.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + vf.decl.Name.Name
		}
	}
	return vf.decl.Name.Name
}
