package analyzers

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestRowAliasCorpus(t *testing.T) {
	RunCorpus(t, "testdata/src/rowalias/a", RowAlias)
}

func TestLockSafeCorpus(t *testing.T) {
	RunCorpus(t, "testdata/src/locksafe/a", LockSafe)
}

func TestErrFmtCorpus(t *testing.T) {
	RunCorpus(t, "testdata/src/errfmt/algebra", ErrFmt)
}

func TestLockOrderCorpus(t *testing.T) {
	RunModuleCorpus(t, []string{"testdata/src/lockorder/a"}, LockOrder)
}

func TestFailSiteCorpus(t *testing.T) {
	RunModuleCorpus(t, []string{
		"testdata/src/failsite/view",
		"testdata/src/failsite/oracle",
	}, FailSite)
}

func TestSrcCloseCorpus(t *testing.T) {
	RunCorpus(t, "testdata/src/srcclose/a", SrcClose)
}

// TestMalformedSuppression checks that ignore directives without a reason
// (or naming no analyzer) are themselves reported under the pseudo-analyzer
// "ojvlint", and that a well-formed directive is not. The want-comment
// harness cannot express this case: the directive is itself a comment, so
// no want can share its line.
func TestMalformedSuppression(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir("testdata/src/suppress/a", "corpus/testdata/src/suppress/a")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkg, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 malformed-directive reports:\n%v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "ojvlint" {
			t.Errorf("diagnostic attributed to %q, want pseudo-analyzer \"ojvlint\": %s", d.Analyzer, d)
		}
		if !strings.Contains(d.Message, "malformed ignore directive") {
			t.Errorf("unexpected message: %s", d)
		}
	}
}

// TestBaselineRoundTrip checks that a written baseline filters exactly the
// findings it was built from, with line references normalized so unrelated
// line shifts do not invalidate entries.
func TestBaselineRoundTrip(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir("testdata/src/srcclose/a", "corpus/testdata/src/srcclose/a")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkg, []*Analyzer{SrcClose})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("corpus produced no findings to baseline")
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaseline(path, l.Root(), diags); err != nil {
		t.Fatal(err)
	}
	baseline, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) == 0 {
		t.Fatal("baseline round-tripped empty")
	}
	if rest := FilterBaseline(diags, baseline, l.Root()); len(rest) != 0 {
		t.Errorf("baseline did not filter its own findings: %v", rest)
	}
	// A shifted line reference still matches: the baseline stores "line N".
	shifted := diags
	for i := range shifted {
		shifted[i].Message = strings.Replace(shifted[i].Message, "line ", "line 9", 1)
	}
	if rest := FilterBaseline(shifted, baseline, l.Root()); len(rest) != 0 {
		t.Errorf("baseline did not survive a line shift: %v", rest)
	}
}

// TestRepoClean runs every analyzer over every package of the module and
// expects zero findings beyond the committed baseline — the same gate
// cmd/ojvlint enforces in CI.
func TestRepoClean(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	diags, err := RunAll(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := LoadBaseline(filepath.Join(l.Root(), "lint", "baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range FilterBaseline(diags, baseline, l.Root()) {
		t.Errorf("%s", d)
	}
}
