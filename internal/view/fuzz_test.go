package view_test

import (
	"math/rand"
	"testing"

	"ojv/internal/fixture"
	"ojv/internal/view"
)

// FuzzVerifyPlans drives the plan-invariant checker with the same random
// SPOJ generator the maintenance tests use: for any valid random view, the
// planner's output must satisfy every structural invariant of the paper
// under the ablation settings derived from the seed.
func FuzzVerifyPlans(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 7, 42, 1 << 20} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		cat, err := fixture.RandCatalog(rng, 12)
		if err != nil {
			t.Fatal(err)
		}
		expr := fixture.RandSPOJ(rng)
		def, err := view.Define(cat, "fuzzed", expr, fixture.RandOutput(cat, expr))
		if err != nil {
			t.Fatalf("RandSPOJ must produce valid views: %v", err)
		}
		opts := view.Options{
			DisableLeftDeep:   seed&1 != 0,
			DisableFKSimplify: seed&2 != 0,
			DisableFKGraph:    seed&4 != 0,
		}
		m, err := view.NewMaintainer(def, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.VerifyAllPlans(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
