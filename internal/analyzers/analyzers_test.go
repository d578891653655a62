package analyzers

import (
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

// TestRepoClean runs every analyzer over every package of the module and
// expects zero findings — the same gate cmd/ojvlint enforces in CI. A
// vetted finding carries an //ojvlint:ignore annotation instead.
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
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
