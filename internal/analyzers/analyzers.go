// Package analyzers implements ojvlint, a set of static-analysis passes
// over this module's source, plus the loading and reporting scaffolding
// they run on.
//
// The passes encode conventions the runtime cannot check:
//
//   - rowalias flags rel.Row values, encoded-key []byte buffers, and row
//     maps that are stored or emitted downstream and then mutated or
//     reused — the scratch-buffer aliasing bug class the zero-alloc exec
//     layer (rel.HashRowCols, rel.AppendRowCols, the join's scratch row) makes
//     possible, and the publish-then-write bug class of the epoch snapshot
//     layer (a fresh-map reassignment after the publish is the sanctioned
//     copy-on-write idiom). Aliasing is not a data race, so the race
//     detector never sees it.
//   - locksafe flags a Lock/RLock without a matching Unlock/RUnlock in the
//     same function, and WaitGroup.Add calls placed inside the goroutine
//     they guard — the misuse patterns that matter for the flush's worker
//     pool.
//   - errfmt enforces the repo's diagnostic conventions: error messages in
//     the algebra/rel/exec/gk domains carry their "domain: " prefix, and
//     plan-invariant diagnostics cite the paper section (§N.N) they
//     enforce.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Reportf, testdata corpora with "// want" expectations) but is built
// entirely on the standard library's go/ast, go/types and go/importer, so
// the module stays dependency-free.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one finding of an analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic the way compilers do.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one static-analysis pass. Exactly one of Run and RunModule is
// set: Run analyzes one package at a time, RunModule sees every loaded
// package at once — the shape the interprocedural passes (lockorder,
// failsite) need, since the conventions they check span
// package boundaries.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass) error
	RunModule func(*ModulePass) error
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at the given position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Line returns the line number of a position, for cross-referencing sites
// inside diagnostic messages.
func (p *Pass) Line(pos token.Pos) int { return p.Fset.Position(pos).Line }

// ModulePass carries every loaded package through one module-wide analyzer
// run. Interprocedural passes use it to follow call edges across package
// boundaries.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at the given position.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Line returns the line number of a position, for cross-referencing sites
// inside diagnostic messages.
func (p *ModulePass) Line(pos token.Pos) int { return p.Fset.Position(pos).Line }

// All returns every registered analyzer, the set cmd/ojvlint runs: the
// per-package passes from PR 2/5 plus the module-wide concurrency and
// invariant passes.
func All() []*Analyzer {
	return []*Analyzer{RowAlias, LockSafe, ErrFmt, LockOrder, FailSite, SrcClose}
}

// runPerPackage applies the per-package analyzers to one package, appending
// raw (unsuppressed) diagnostics.
func runPerPackage(pkg *Package, as []*Analyzer, diags *[]Diagnostic) error {
	for _, a := range as {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    diags,
		}
		if err := a.Run(pass); err != nil {
			return fmt.Errorf("analyzers: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	return nil
}

// runModule applies the module-wide analyzers once over the whole package
// set, appending raw diagnostics.
func runModule(pkgs []*Package, as []*Analyzer, diags *[]Diagnostic) error {
	if len(pkgs) == 0 {
		return nil
	}
	for _, a := range as {
		if a.RunModule == nil {
			continue
		}
		pass := &ModulePass{
			Analyzer: a,
			Fset:     pkgs[0].Fset,
			Pkgs:     pkgs,
			diags:    diags,
		}
		if err := a.RunModule(pass); err != nil {
			return fmt.Errorf("analyzers: %s: %w", a.Name, err)
		}
	}
	return nil
}

// RunAnalyzers applies the analyzers to one loaded package and returns the
// diagnostics, suppression-filtered and sorted by position. Module-wide
// analyzers in the set run over just this package.
func RunAnalyzers(pkg *Package, as []*Analyzer) ([]Diagnostic, error) {
	return RunAll([]*Package{pkg}, as)
}

// RunAll applies the analyzers — per-package passes to each package, module
// passes once over the whole set — and returns the diagnostics with
// //ojvlint:ignore suppressions applied, sorted by position.
func RunAll(pkgs []*Package, as []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if err := runPerPackage(pkg, as, &diags); err != nil {
			return nil, err
		}
	}
	if err := runModule(pkgs, as, &diags); err != nil {
		return nil, err
	}
	idx := collectSuppressions(pkgs, &diags)
	diags = filterSuppressed(diags, idx)
	sortDiagnostics(diags)
	return diags, nil
}
