package bench

import "testing"

// TestRunConcurrentMaintenanceTiny covers the concurrent-maintenance
// experiment end to end at a tiny scale: serialized reference plus 2- and
// 4-worker points, fingerprint-checked against each other inside the run.
func TestRunConcurrentMaintenanceTiny(t *testing.T) {
	results, err := RunConcurrentMaintenance(5, 3, 3, 40, 120, []int{2, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d points, want 3", len(results))
	}
	if results[0].Mode != "serialized" || results[0].Workers != 1 {
		t.Fatalf("reference point = %+v", results[0])
	}
	for _, r := range results {
		if r.FinalViewRows != results[0].FinalViewRows {
			t.Fatalf("view rows diverged: %+v", r)
		}
		if r.FlushesPerSec <= 0 {
			t.Fatalf("no throughput measured: %+v", r)
		}
		// Every point — the pool of one included — partitions every flush
		// into one component per disjoint group.
		if want := int64(r.Groups * r.Rounds); r.Components != want {
			t.Fatalf("components = %d, want %d (groups × rounds): %+v", r.Components, want, r)
		}
	}
}
