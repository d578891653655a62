package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ojv/internal/algebra"
	"ojv/internal/obs"
	"ojv/internal/tpch"
	"ojv/internal/view"
)

const testSF = 0.002

func TestTable1Harness(t *testing.T) {
	rows, err := Table1(testSF, 1, view.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	labels := []string{"COLP", "COL", "C", "P"}
	for i, r := range rows {
		if r.Term != labels[i] {
			t.Errorf("row %d term = %s", i, r.Term)
		}
	}
	// Shape invariants from the paper's Table 1: COLP dominates both the
	// view and the delta.
	if rows[0].Cardinality <= rows[1].Cardinality || rows[0].Cardinality <= rows[2].Cardinality {
		t.Errorf("COLP should dominate: %+v", rows)
	}
	if rows[0].Affected == 0 {
		t.Error("COLP affected should be non-zero for a held-out insert batch")
	}
	total := 0
	for _, r := range rows {
		total += r.Affected
	}
	if total == 0 {
		t.Error("insertion affected no rows at all")
	}
	if len(Table1Paper) != 4 || Table1Paper[0].Cardinality != 5208168 {
		t.Error("paper reference numbers")
	}
}

func TestScaleN(t *testing.T) {
	if ScaleN(60000, 0.01) != 600 || ScaleN(60, 0.001) != 1 || ScaleN(10, 1) != 10 {
		t.Error("ScaleN")
	}
}

func TestSetupRoundTrip(t *testing.T) {
	for _, method := range []Method{MethodCore, MethodOJV, MethodOJVBase, MethodGK} {
		for _, batch := range []Batch{LineitemInsert, LineitemDelete} {
			s, err := NewSetup(Point{Method: method, Batch: batch, N: ScaleN(6000, testSF), SF: testSF, Seed: 1})
			if err != nil {
				t.Fatalf("%s %s: %v", method, batch, err)
			}
			r, err := s.Run()
			if err != nil {
				t.Fatalf("%s %s: %v", method, batch, err)
			}
			// GK reports the net row-count change, which can legitimately be
			// zero (each joined row can displace one orphan); our methods
			// report the primary delta size.
			if method != MethodGK && (r.PrimaryRows == 0 || !r.Committed) {
				t.Errorf("%s %s: %+v maintained nothing", method, batch, r.MaintStats)
			}
			if _, err := s.Undo(); err != nil {
				t.Fatalf("%s %s undo: %v", method, batch, err)
			}
		}
	}
}

// TestInsertDeleteCycleRestoresState repeats a point's run and its undo, as
// the Go benchmarks do, and requires the view to come back each time.
func TestInsertDeleteCycleRestoresState(t *testing.T) {
	for _, batch := range []Batch{LineitemInsert, LineitemDelete} {
		s, err := NewSetup(Point{Method: MethodOJV, Batch: batch, N: ScaleN(6000, testSF), SF: testSF, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		mv := s.m.Materialized()
		before := mv.Len()
		for cycle := 0; cycle < 3; cycle++ {
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Undo(); err != nil {
				t.Fatal(err)
			}
			if got := mv.Len(); got != before {
				t.Fatalf("%s cycle %d: view has %d rows, want %d", batch, cycle, got, before)
			}
		}
		if err := view.Check(s.m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunFig5Harness(t *testing.T) {
	// Only the cheap methods here; GK is exercised by TestSetupRoundTrip.
	results, err := Run(Fig5(testSF, 1, true, []Method{MethodCore, MethodOJV}, view.Options{}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(PaperNs)*2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Elapsed <= 0 || r.Elapsed > time.Minute || r.PrimaryRows == 0 {
			t.Errorf("suspicious point %+v", r)
		}
	}
	if results[0].Label != "core-view/N=60" {
		t.Errorf("first point is %q", results[0].Label)
	}
}

// TestFig5BatchesReachTheView checks that every Figure 5 point at SF 0.01
// draws a batch holding a lineitem of an order in V3's date window, so no
// point times a maintenance run with nothing to maintain, and that all
// three methods at a point draw the same batch.
func TestFig5BatchesReachTheView(t *testing.T) {
	if testing.Short() {
		t.Skip("generates eight SF 0.01 databases")
	}
	lo, hi := tpch.V3DateLo.AsInt(), tpch.V3DateHi.AsInt()
	for _, insert := range []bool{true, false} {
		for _, p := range Fig5(0.01, 1, insert, []Method{MethodCore}, view.Options{}) {
			s, err := NewSetup(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.rows) != p.N {
				t.Errorf("%s %s: batch has %d rows, want %d", p.Batch, p.Label, len(s.rows), p.N)
			}
			orders := s.cat.Table("orders")
			inWindow := false
			for _, r := range s.rows {
				o, _ := orders.Get(r[0])
				inWindow = inWindow || (o[2].AsInt() >= lo && o[2].AsInt() <= hi)
			}
			if !inWindow {
				t.Errorf("%s %s: no lineitem of the batch is in V3's date window", p.Batch, p.Label)
			}
		}
	}
	var first string
	for _, p := range Fig5(testSF, 1, false, Fig5Methods, view.Options{})[:len(Fig5Methods)] {
		s, err := NewSetup(p)
		if err != nil {
			t.Fatal(err)
		}
		if batch := fmt.Sprint(s.rows); first == "" {
			first = batch
		} else if batch != first {
			t.Errorf("%s draws a different batch", p.Label)
		}
	}
}

// TestAblationSwitches runs every ablation point at a tiny scale factor and
// checks that each switch reaches what it claims to change.
func TestAblationSwitches(t *testing.T) {
	tracer := obs.NewTracer()
	points := Ablations(testSF, 1, view.Options{Tracer: tracer})
	if len(points) != 10 {
		t.Fatalf("%d ablation points, want five pairs", len(points))
	}
	setups := make(map[string]*Setup)
	results := make(map[string]Fig5Result)
	for _, p := range points {
		s, err := NewSetup(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Label, err)
		}
		tracer.Reset()
		if results[p.Label], err = s.Run(); err != nil {
			t.Fatal(err)
		}
		setups[p.Label] = s
		if p.Label == "secondary-source/base" || p.Label == "secondary-source/view" {
			src, _ := tracer.Roots()[0].Find("secondary").AttrStr("source")
			if want := strings.TrimPrefix(p.Label, "secondary-source/"); !strings.HasPrefix(src, want) {
				t.Errorf("%s: secondary span source = %q, want %s", p.Label, src, want)
			}
		}
	}
	primary := func(label string) algebra.Expr {
		plan, err := setups[label].m.Plan("T", true)
		if err != nil {
			t.Fatal(err)
		}
		return plan.PrimaryExpr()
	}
	if leftDeep, bushy := primary("left-deep/left-deep"), primary("left-deep/bushy"); !view.IsLeftDeep(leftDeep) || view.IsLeftDeep(bushy) {
		t.Errorf("left-deep ablation: ΔV^D %s vs bushy %s", leftDeep, bushy)
	}
	if on, off := primary("fk-simplify/on"), primary("fk-simplify/off"); on.String() == off.String() {
		t.Errorf("fk-simplify ablation: the same ΔV^D %s either way", on)
	}
	if on, off := results["theorem3/on"].IndirectTerms, results["theorem3/off"].IndirectTerms; off <= on {
		t.Errorf("theorem3 ablation: %d indirect terms with the reduced graph, %d without", on, off)
	}
	if !setups["orphan-index/on"].m.Materialized().OrphanIndexed() ||
		setups["orphan-index/off"].m.Materialized().OrphanIndexed() {
		t.Error("orphan-index ablation: the switch does not reach the view store")
	}
}
