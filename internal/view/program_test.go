package view

import (
	"math/rand"
	"strings"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/fixture"
	"ojv/internal/obs"
	"ojv/internal/rel"
)

// TestPlanProgramCachedUntilDDL pins the lifetime of a plan's compiled
// program: the same *exec.Program serves every run while the catalog's
// physical design stands, and the first Plan after DDL compiles a new one —
// in a new plan value, the old one stays intact for whoever holds it —
// while the logical plan (the ΔV^D expression) is never rebuilt.
func TestPlanProgramCachedUntilDDL(t *testing.T) {
	cat, m := newV1Maintainer(t, false, Options{})
	first, err := m.Plan("T", true)
	if err != nil {
		t.Fatal(err)
	}
	if first.Program() == nil {
		t.Fatal("V1 ΔT plan has no compiled program")
	}
	for i := 0; i < 100; i++ {
		runInsert(t, cat, m, "T", insertRowsFor(cat, "T", 1, int64(100+i), false))
		p, err := m.Plan("T", true)
		if err != nil {
			t.Fatal(err)
		}
		if p != first || p.Program() != first.Program() {
			t.Fatalf("run %d: plan or program replaced without DDL", i)
		}
	}
	if _, err := cat.CreateIndex("S", "S_sk_b", "sk", "b"); err != nil {
		t.Fatal(err)
	}
	after, err := m.Plan("T", true)
	if err != nil {
		t.Fatal(err)
	}
	if after.Program() == first.Program() {
		t.Fatal("CreateIndex did not recompile the plan's program")
	}
	if after.Program().Generation() != cat.DesignGeneration() || first.Program().Generation() == cat.DesignGeneration() {
		t.Fatalf("generations: old %d, new %d, catalog %d",
			first.Program().Generation(), after.Program().Generation(), cat.DesignGeneration())
	}
	if after.PrimaryExpr() != first.PrimaryExpr() {
		t.Fatal("DDL rebuilt the logical plan")
	}
	if again, _ := m.Plan("T", true); again != after {
		t.Fatal("recompiled plan was not cached")
	}
	runInsert(t, cat, m, "T", insertRowsFor(cat, "T", 3, 999, false))
	if err := Check(m); err != nil {
		t.Fatal(err)
	}
}

// unarrangedAB returns a maintainer over A ⟕ right (on the join attributes)
// that has neither arranged nor materialized.
func unarrangedAB(t *testing.T, cat *rel.Catalog, name, right string, opts Options) *Maintainer {
	t.Helper()
	expr := &algebra.Join{
		Kind:  algebra.LeftOuterJoin,
		Left:  &algebra.TableRef{Name: "A"},
		Right: &algebra.TableRef{Name: right},
		Pred:  algebra.Eq("A", "Aj", right, right+"j"),
	}
	def, err := Define(cat, name, expr, fixture.RandOutput(cat, expr))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(def, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// hashAndProbe runs one 1-row insert into A through the maintainer and
// returns what it added to the hash-build and index-probe counters.
func hashAndProbe(t *testing.T, cat *rel.Catalog, m *Maintainer, metrics *obs.Registry, key int64) (built, probed int64) {
	t.Helper()
	before := metrics.Snapshot()
	runInsert(t, cat, m, "A", []rel.Row{{rel.Int(key), rel.Int(3), rel.Int(1)}})
	if err := Check(m); err != nil {
		t.Fatal(err)
	}
	after := metrics.Snapshot()
	return after["exec.join.hash.build_rows"] - before["exec.join.hash.build_rows"],
		after["exec.join.index.probe_rows"] - before["exec.join.index.probe_rows"]
}

// TestUnarrangedProgramUpgradesOnDDL: NewMaintainer has no catalog side
// effect, so a maintainer nobody arranged hash-builds an unindexed join
// attribute — and the design-generation rule alone upgrades it: an index
// declared after its first run is probed by the next. (Through the facade
// the premise cannot arise: CreateView arranges.)
func TestUnarrangedProgramUpgradesOnDDL(t *testing.T) {
	cat, err := fixture.RandCatalogNoIndex(rand.New(rand.NewSource(3)), 30)
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	m := unarrangedAB(t, cat, "ab", "B", Options{Metrics: metrics})
	if err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	if n := len(cat.Table("B").Indexes()); n != 0 {
		t.Fatalf("NewMaintainer and Materialize left %d index(es) on B", n)
	}
	if built, probed := hashAndProbe(t, cat, m, metrics, 1000); built == 0 || probed != 0 {
		t.Fatalf("before the index: hash-built %d rows, index-probed %d; want a hash build and no probe", built, probed)
	}
	if _, err := cat.CreateIndex("B", "B_j", "Bj"); err != nil {
		t.Fatal(err)
	}
	if built, probed := hashAndProbe(t, cat, m, metrics, 1001); built != 0 || probed == 0 {
		t.Fatalf("after CreateIndex: hash-built %d rows, index-probed %d; want probes and no build", built, probed)
	}
}

// TestArrangeAndRelease: Arrange is the maintainer's one catalog side
// effect — it acquires an index per join attribute its programs probe, and
// the next run probes them — and Release undoes it: the indexes go, the
// maintainer keeps working on hash joins.
func TestArrangeAndRelease(t *testing.T) {
	cat, err := fixture.RandCatalogNoIndex(rand.New(rand.NewSource(3)), 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []Strategy{StrategyAuto, StrategyFromBase} {
		metrics := obs.NewRegistry()
		m := unarrangedAB(t, cat, "ab", "B", Options{Metrics: metrics, Strategy: strategy})
		if err := m.Arrange(); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(m.Arrangements(), " "); got != "A(Aj) B(Bj)" {
			t.Fatalf("strategy %v: arrangements %q, want A(Aj) B(Bj)", strategy, got)
		}
		if err := m.Materialize(); err != nil {
			t.Fatal(err)
		}
		if built, probed := hashAndProbe(t, cat, m, metrics, 2000+int64(strategy)); built != 0 || probed == 0 {
			t.Fatalf("strategy %v, arranged: hash-built %d rows, index-probed %d", strategy, built, probed)
		}
		m.Release()
		if a, b := len(cat.Table("A").Indexes()), len(cat.Table("B").Indexes()); a+b != 0 || len(m.Arrangements()) != 0 {
			t.Fatalf("strategy %v: Release left %d + %d indexes", strategy, a, b)
		}
		if built, probed := hashAndProbe(t, cat, m, metrics, 2100+int64(strategy)); built == 0 || probed != 0 {
			t.Fatalf("strategy %v, released: hash-built %d rows, index-probed %d", strategy, built, probed)
		}
	}
}

// TestArrangeReleasedOnFailedRegistration replays what Database.register
// does when a view fails after Arrange: the failing view's Materialize is
// made to fail (its expression swapped for an unknown table — nothing a
// facade caller can do once the plans verified), its holds are released, and
// the table it alone had arranged is back to no index while the arrangement
// it shared stays with the other holder. The other view's programs were
// compiled before both generation bumps; its next runs recompile and check
// out.
func TestArrangeReleasedOnFailedRegistration(t *testing.T) {
	cat, err := fixture.RandCatalogNoIndex(rand.New(rand.NewSource(5)), 30)
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	other := unarrangedAB(t, cat, "ab", "B", Options{Metrics: metrics})
	if err := other.Arrange(); err != nil {
		t.Fatal(err)
	}
	if err := other.Materialize(); err != nil {
		t.Fatal(err)
	}
	hashAndProbe(t, cat, other, metrics, 3000)
	before, err := other.Plan("A", true)
	if err != nil {
		t.Fatal(err)
	}
	aj := cat.Table("A").Indexes()[0]

	failing := unarrangedAB(t, cat, "ac", "C", Options{})
	if err := failing.Arrange(); err != nil {
		t.Fatal(err)
	}
	if n := len(cat.Table("C").Indexes()); n != 1 {
		t.Fatalf("the new view arranged %d index(es) on C, want 1", n)
	}
	failing.def.Expr = &algebra.TableRef{Name: "nosuch"}
	if err := failing.Materialize(); err == nil {
		t.Fatal("Materialize over an unknown table succeeded")
	}
	failing.Release()
	if n := len(cat.Table("C").Indexes()); n != 0 {
		t.Fatalf("the failed registration keeps %d index(es) on C", n)
	}
	if got := cat.Table("A").Indexes(); len(got) != 1 || got[0] != aj {
		t.Fatal("the failed registration's release took the shared arrangement from its other holder")
	}
	if built, probed := hashAndProbe(t, cat, other, metrics, 3001); built != 0 || probed == 0 {
		t.Fatalf("the other view after the failed registration: hash-built %d rows, index-probed %d", built, probed)
	}
	after, err := other.Plan("A", true)
	if err != nil {
		t.Fatal(err)
	}
	if after.Program() == before.Program() || after.Program().Generation() != cat.DesignGeneration() {
		t.Fatal("the other view's program was not recompiled across the generation bumps")
	}
}
