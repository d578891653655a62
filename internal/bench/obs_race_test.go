package bench

import (
	"sync"
	"testing"

	"ojv/internal/obs"
	"ojv/internal/view"
)

// TestObservedMaintenanceHammer is the regression test for lost metric
// updates while maintenance is observed: it drives repeated insert/delete
// cycles of one V3 view with StrategyFromBase — every term's §5.3
// anti-joins feeding the registry — while a background goroutine
// continuously snapshots the registry and renders the live span forest.
// Run under -race this flushes out unsynchronized access between the
// maintaining and the observing goroutine; in any mode it asserts that no
// counter update was lost: the registry's row counters must equal the sums
// of the per-run MaintStats exactly.
func TestObservedMaintenanceHammer(t *testing.T) {
	tracer := obs.NewTracer()
	reg := obs.NewRegistry()
	s, err := NewSetup(Point{Method: MethodOJVBase, Batch: LineitemInsert, N: ScaleN(60000, testSF), SF: testSF, Seed: 1,
		Opts: view.Options{Tracer: tracer, Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	tracer.Reset()
	before := reg.Snapshot()

	// Background observer: concurrent snapshots and live tree renders are
	// exactly what a monitoring endpoint does while maintenance runs.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = reg.Snapshot()
				_ = obs.RenderTree(tracer.Roots(), true)
			}
		}
	}()

	var wantPrimary, wantSecondary, wantUndo, runs int64
	const cycles = 4
	for c := 0; c < 2*cycles; c++ {
		run := s.Run
		if c%2 == 1 {
			run = s.Undo
		}
		r, err := run()
		if err != nil {
			t.Fatalf("run %d: %v", c, err)
		}
		wantPrimary += int64(r.PrimaryRows)
		wantSecondary += int64(r.SecondaryRows)
		wantUndo += int64(r.UndoRecords)
		runs++
	}
	close(stop)
	wg.Wait()

	after := reg.Snapshot()
	delta := func(name string) int64 { return after[name] - before[name] }
	if got := delta("view.rows.primary"); got != wantPrimary {
		t.Errorf("view.rows.primary = %d, stats sum to %d", got, wantPrimary)
	}
	if got := delta("view.rows.secondary"); got != wantSecondary {
		t.Errorf("view.rows.secondary = %d, stats sum to %d", got, wantSecondary)
	}
	if got := delta("view.undo.records"); got != wantUndo {
		t.Errorf("view.undo.records = %d, stats sum to %d", got, wantUndo)
	}
	if got := delta("view.commits"); got != runs {
		t.Errorf("view.commits = %d, want %d", got, runs)
	}
	if got := delta("view.rollbacks"); got != 0 {
		t.Errorf("view.rollbacks = %d on a fault-free hammer", got)
	}

	// Every recorded span tree must validate even though it was rendered
	// while children were being attached.
	roots := tracer.Roots()
	if len(roots) == 0 {
		t.Fatal("hammer recorded no spans")
	}
	maintains := 0
	for _, r := range roots {
		if err := r.Validate(); err != nil {
			t.Error(err)
		}
		if r.Name() == "view.maintain" {
			maintains++
		}
	}
	if maintains != int(runs) {
		t.Errorf("recorded %d maintain roots, want %d", maintains, runs)
	}
}
