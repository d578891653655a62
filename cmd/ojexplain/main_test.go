package main

import (
	"bytes"
	"strings"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/rel"
)

func TestRunExplain(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-view", "v1fk", "-update", "T"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"join-disjunctive normal form", "subsumption graph", "ΔV^D"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
}

// TestRunExplainPhysicalPlan: under each ΔV^D expression the default output
// shows the compiled program, naming for every join the algorithm and, for
// an index join, the key or index it probes.
func TestRunExplainPhysicalPlan(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-view", "v2fk", "-update", "O"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{
		"arrangements: none: every probe is served by a key or a declared index",
		"physical plan:",
		"join.index[lo] probe L via index fk_L_O(lok)",
		"join.index[lo] probe C via unique key(ck) select C.a>0",
		"scan ΔO",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if n := strings.Count(out.String(), "physical plan:"); n != 3 {
		t.Errorf("%d physical plans, want one per ΔV^D form (3)", n)
	}
}

// TestExplainNamesHashJoin: on a catalog that declares no index the output
// lists the arrangements registration derives and the left-deep plans probe
// them — what a registered view runs — while a join that still hash-builds
// (the bushy form's non-leaf right operand) is named as such. Explaining
// leaves the catalog as it found it, and a declared index takes the place of
// the arrangement it covers.
func TestExplainNamesHashJoin(t *testing.T) {
	cat := rel.NewCatalog()
	for _, n := range []string{"P", "Q", "R"} {
		if _, err := cat.CreateTable(n, []rel.Column{
			{Name: n + "k", Kind: rel.KindInt}, {Name: n + "j", Kind: rel.KindInt},
		}, n+"k"); err != nil {
			t.Fatal(err)
		}
	}
	expr := &algebra.Join{
		Kind: algebra.LeftOuterJoin,
		Left: &algebra.TableRef{Name: "P"},
		Right: &algebra.Join{
			Kind:  algebra.InnerJoin,
			Left:  &algebra.TableRef{Name: "Q"},
			Right: &algebra.TableRef{Name: "R"},
			Pred:  algebra.Eq("Q", "Qj", "R", "Rj"),
		},
		Pred: algebra.Eq("P", "Pj", "Q", "Qj"),
	}
	var out bytes.Buffer
	if err := explain(&out, cat, expr, "noindex", "P"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"arrangements: P(Pj), Q(Qj), R(Rj)",
		"join.hash[lo] build right on P.Pj=Q.Qj",
		"join.index[join] probe R via index arr_R_Rj(Rj)",
		"join.index[lo] probe Q via index arr_Q_Qj(Qj)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	leftDeep := out.String()[strings.Index(out.String(), "ΔV^D (left-deep"):]
	if strings.Contains(leftDeep, "join.hash") {
		t.Errorf("a left-deep plan of an arranged view hash-builds:\n%s", leftDeep)
	}
	for _, n := range []string{"P", "Q", "R"} {
		if got := len(cat.Table(n).Indexes()); got != 0 {
			t.Errorf("explain left %d index(es) on %s", got, n)
		}
	}
	if _, err := cat.CreateIndex("Q", "Q_j", "Qj"); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := explain(&out, cat, expr, "noindex", "P"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"arrangements: P(Pj), R(Rj)",
		"join.index[lo] probe Q via index Q_j(Qj)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("after CreateIndex the output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunCheck(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-view", "v1", "-check"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "satisfy the paper's invariants") {
		t.Errorf("check output lacks verdict: %s", out.String())
	}
}

func TestRunCheckSingleTable(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-view", "v2fk", "-update", "O", "-check"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "updates to O") {
		t.Errorf("check output lacks per-table verdict: %s", out.String())
	}
}

func TestRunUnknownView(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-view", "nope"}, &out, &errb); code == 0 {
		t.Fatal("unknown view must exit non-zero")
	}
	if !strings.Contains(errb.String(), "unknown view") {
		t.Errorf("stderr lacks diagnostic: %s", errb.String())
	}
}

// TestRunCheckInvalidPair: a table the view does not reference must make
// -check exit non-zero with a diagnostic rather than report success.
func TestRunCheckInvalidPair(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-view", "v1", "-update", "Z", "-check"}, &out, &errb); code == 0 {
		t.Fatal("invalid view/update pair must exit non-zero")
	}
	if !strings.Contains(errb.String(), "Z") {
		t.Errorf("stderr does not name the bad table: %s", errb.String())
	}
}

// TestRunStats exercises the -stats path end to end: a sample
// delete/re-insert run with tracing on, annotated scripts for both
// directions, and the recorded span forest.
func TestRunStats(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-view", "v1", "-stats"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{
		"sample run:",
		"observed: rows=",
		"recorded spans:",
		"view.maintain",
		"primary.eval",
		"changeset.commit",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats output lacks %q", want)
		}
	}
}

// TestRunStatsFromBase pins the -strategy flag: forcing the from-base
// secondary delta must surface in the recorded strategy tags.
func TestRunStatsFromBase(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-view", "v1", "-stats", "-strategy", "base"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "strategy=from-base") {
		t.Errorf("stats output lacks from-base strategy tag: %s", out.String())
	}
}

// TestRunStatsV2 drives -stats on the C-O-L view, whose updated table
// (O) sits in the middle of the join chain.
func TestRunStatsV2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-view", "v2", "-stats"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "recorded spans:") {
		t.Errorf("aggregate stats output lacks span forest: %s", out.String())
	}
}

// TestRunRejectsSharedFlag: the multi-view shared-plan mode is gone, so
// -shared is an unknown flag.
func TestRunRejectsSharedFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-view", "v1", "-shared"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "flag provided but not defined: -shared") {
		t.Errorf("stderr lacks the unknown-flag error: %s", errb.String())
	}
}

// TestRunBadStrategy: an unknown -strategy value must fail loudly.
func TestRunBadStrategy(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-view", "v1", "-stats", "-strategy", "psychic"}, &out, &errb); code == 0 {
		t.Fatal("bad strategy must exit non-zero")
	}
	if !strings.Contains(errb.String(), "psychic") {
		t.Errorf("stderr does not name the bad strategy: %s", errb.String())
	}
}
