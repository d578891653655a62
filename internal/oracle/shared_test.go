package oracle

import (
	"fmt"
	"os"
	"testing"

	"ojv/internal/view"
)

// TestSharedOracleShort is the always-on corpus for shared maintenance
// plans: many views over three base tables (views 0 and 1 forced to
// identical shapes), every view checked against recomputation from the
// base tables at every flush, with the producer/consumer row identity
// checked alongside. CI also runs it under
// -race, where a tee handing the same batch to two pipelines unsafely
// would trip the detector.
func TestSharedOracleShort(t *testing.T) {
	seeds := 6
	views := 6
	if testing.Short() {
		seeds, views = 2, 4
	}
	for s := 0; s < seeds; s++ {
		for _, strat := range []view.Strategy{view.StrategyFromView, view.StrategyFromBase} {
			seed, strat := int64(s), strat
			t.Run(fmt.Sprintf("seed=%d/strategy=%v", seed, strat), func(t *testing.T) {
				t.Parallel()
				if err := RunSharedSeed(seed, strat, views, 6, 12); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSharedOracleManyViews stresses the fan-out: 16 views over the same
// three tables, guaranteeing high-degree tees on the duplicated shapes.
func TestSharedOracleManyViews(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping many-view shared oracle in -short mode")
	}
	if err := RunSharedSeed(42, view.StrategyFromView, 16, 4, 12); err != nil {
		t.Fatal(err)
	}
}

// TestSharedCorpusFull is the nightly shared-plan corpus, gated like
// TestFullCorpus.
func TestSharedCorpusFull(t *testing.T) {
	if os.Getenv("OJV_ORACLE_CORPUS") != "full" {
		t.Skip("set OJV_ORACLE_CORPUS=full to run the large corpus")
	}
	for s := 0; s < 100; s++ {
		for _, strat := range []view.Strategy{view.StrategyFromView, view.StrategyFromBase} {
			seed, strat := int64(30_000+s), strat
			t.Run(fmt.Sprintf("seed=%d/strategy=%v", seed, strat), func(t *testing.T) {
				t.Parallel()
				if err := RunSharedSeed(seed, strat, 8, 8, 20); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
