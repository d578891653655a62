package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// This file is the corpus-test harness, the stdlib-only equivalent of
// golang.org/x/tools/go/analysis/analysistest: a corpus package under
// testdata/src/<analyzer>/<pkg> annotates the lines it expects diagnostics
// on with trailing comments of the form
//
//	// want "regexp"
//
// (several quoted patterns may follow one want). RunCorpus type-checks the
// corpus, runs the analyzers, and fails on any unexpected or missing
// diagnostic. RunModuleCorpus does the same for the module-wide passes,
// loading several corpus packages as one set.

// expectation is one parsed "// want" pattern.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	used bool
}

var (
	corpusLoaderOnce sync.Once
	corpusLoader     *Loader
	corpusLoaderErr  error
)

// sharedLoader returns a process-wide loader so corpora share the
// type-checked standard library.
func sharedLoader() (*Loader, error) {
	corpusLoaderOnce.Do(func() {
		corpusLoader, corpusLoaderErr = NewLoader(".")
	})
	return corpusLoader, corpusLoaderErr
}

// quotedPattern matches one `...` or "..." segment after a want marker.
var quotedPattern = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectWants parses the want comments of one file's comment list.
func collectWants(t *testing.T, fset *token.FileSet, f *ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			i := strings.Index(c.Text, "want ")
			if !strings.HasPrefix(c.Text, "//") || i < 0 {
				continue
			}
			pos := fset.Position(c.Pos())
			for _, q := range quotedPattern.FindAllString(c.Text[i+len("want "):], -1) {
				pat := q[1 : len(q)-1]
				var err error
				if q[0] == '"' {
					if pat, err = strconv.Unquote(q); err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
				}
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
			}
		}
	}
	return wants
}

// checkWants matches diagnostics against expectations one-to-one, failing
// on any unexpected or missing diagnostic.
func checkWants(t *testing.T, wants []*expectation, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.used && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// RunCorpus loads the corpus package in dir, runs the analyzers over it and
// checks the diagnostics against the corpus's want comments.
func RunCorpus(t *testing.T, dir string, as ...*Analyzer) {
	t.Helper()
	RunModuleCorpus(t, []string{dir}, as...)
}

// RunModuleCorpus loads several corpus packages and runs the analyzers over
// all of them as one set — the shape the module-wide passes (lockorder,
// failsite) need, since the conventions they check span
// package boundaries. Want comments are also collected from _test.go files
// in the corpus directories: the loader skips them, but the failsite pass
// reads them on its own and anchors matrix-parity diagnostics there.
func RunModuleCorpus(t *testing.T, dirs []string, as ...*Analyzer) {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir, "corpus/"+dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags, err := RunAll(pkgs, as)
	if err != nil {
		t.Fatal(err)
	}

	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			wants = append(wants, collectWants(t, pkg.Fset, f)...)
		}
		ents, err := os.ReadDir(pkg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			wants = append(wants, collectWants(t, fset, f)...)
		}
	}
	checkWants(t, wants, diags)
}
