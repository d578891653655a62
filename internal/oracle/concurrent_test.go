package oracle

import (
	"fmt"
	"testing"
)

// TestConcurrentMaintCorpus runs the concurrent-maintenance harness over a
// small seed corpus: four disjoint view groups staged by four concurrent
// writers, flushed through a four-worker component pool, with readers
// fingerprinting snapshots throughout, then checked bit-identically
// against a serialized twin. CI's race-concurrent job runs it under -race
// -count=2, where any cross-component write or torn read is both a
// fingerprint mismatch and a race report.
func TestConcurrentMaintCorpus(t *testing.T) {
	for seed := int64(7100); seed < 7104; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			if err := RunConcurrentMaintSeed(seed, 4, 4, 5, 8, 24, 4); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentMaintWorkerCounts proves worker-count independence: the
// same seed through 2, 3 and 8 workers (more workers than components
// included) must satisfy every invariant and match the same serialized
// twin.
func TestConcurrentMaintWorkerCounts(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			if err := RunConcurrentMaintSeed(7200, 4, workers, 4, 8, 24, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentFaultMatrix sweeps the failpoint interleaving matrix: for
// every site group 0's component visits mid-flush, a scenario forces that
// site to fail while group 1's component commits — concurrently on a pool
// of two, inline after it with no pool — asserting exact restore of group
// 0, durability of group 1, and convergence of the disarmed retry.
func TestConcurrentFaultMatrix(t *testing.T) {
	for seed := int64(7300); seed < 7302; seed++ {
		for _, workers := range []int{0, 2} {
			seed, workers := seed, workers
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				t.Parallel()
				n, err := RunConcurrentFaultMatrix(seed, workers)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					t.Fatal("fault matrix swept zero sites — the armed component's flush visited no failpoints")
				}
			})
		}
	}
}
