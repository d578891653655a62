package main

import (
	"testing"
	"time"
)

func toyInstance(t *testing.T, workload string) *instance {
	t.Helper()
	in, err := setup(workload, defaultSeed, toyScale, obsOptions{})
	if err != nil {
		t.Fatalf("%s: set-up: %v", workload, err)
	}
	t.Cleanup(func() {
		if err := in.close(); err != nil {
			t.Errorf("%s: close: %v", workload, err)
		}
	})
	return in
}

// Every generator's cycle must return all tables and views to where they
// started — that is what lets the clock, not the data, end a run — and the
// views must equal their recomputation both half-way and at the end.
func TestCycleRestoresState(t *testing.T) {
	for _, w := range workloadNames {
		in := toyInstance(t, w)
		before := in.fingerprint()
		if err := checkedCycle(in); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !equalFingerprints(before, in.fingerprint()) {
			t.Errorf("%s: the cycle did not restore the database", w)
		}
		// A second cycle must apply as cleanly as the first.
		if _, err := runPass(in, nil); err != nil {
			t.Fatalf("%s: second cycle: %v", w, err)
		}
		if !equalFingerprints(before, in.fingerprint()) {
			t.Errorf("%s: the second cycle did not restore the database", w)
		}
		if in.batch != nil && in.cycle[len(in.cycle)-1].kind != opFlush {
			t.Errorf("%s: a batch cycle must end on a flush", w)
		}
	}
}

// The same seed must give the same inputs, another seed other inputs.
func TestSeedDrivesInputs(t *testing.T) {
	digest := func(seed int64) []uint64 {
		in, err := setup("group-commit", seed, toyScale, obsOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer in.close()
		var buf []byte
		var out []uint64
		for _, o := range in.cycle {
			h, b := rowSetHash(o.rows, buf)
			buf = b
			out = append(out, h+uint64(o.kind)+uint64(len(o.keys)))
		}
		return append(out, in.fingerprint()...)
	}
	a, b, c := digest(1), digest(1), digest(2)
	if !equalFingerprints(a, b) {
		t.Error("one seed gave two different inputs")
	}
	if equalFingerprints(a, c) {
		t.Error("two seeds gave the same inputs")
	}
}

// fakeClock advances a millisecond per reading.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

// A window is whole cycles: as many as it takes to fill its minimum length,
// never a part of one, so every window does the same work and ends on a
// commit boundary.
func TestWindowIsWholeCycles(t *testing.T) {
	in := toyInstance(t, "multi-view")
	ops := len(in.cycle)
	flushAt := -1
	for i, o := range in.cycle {
		if o.kind == opFlush {
			flushAt = i
			break
		}
	}
	// The fake clock is read once when the window opens, twice per call and
	// once at the end of every cycle.
	cycleMs := 2*ops + 1
	for _, c := range []struct {
		minMs, cycles int
	}{{10, 1}, {cycleMs, 1}, {cycleMs + 1, 2}} {
		rec, clock := &recorder{}, &fakeClock{}
		w, err := rec.runWindow(in, time.Duration(c.minMs)*time.Millisecond, clock.now)
		if err != nil {
			t.Fatal(err)
		}
		if w.calls != c.cycles*ops {
			t.Errorf("min %d ms: %d calls, want %d cycles of %d", c.minMs, w.calls, c.cycles, ops)
		}
		if want := int64(c.cycles*cycleMs) * 1e6; w.endNs != want {
			t.Errorf("min %d ms: window is %d ns long, want %d", c.minMs, w.endNs, want)
		}
		// Flushes present no rows; every other call one.
		if w.rows != c.cycles*(ops-2) || len(rec.visible) != w.rows || len(rec.stmt) != w.calls {
			t.Errorf("min %d ms: rows %d, visible samples %d, call samples %d", c.minMs, w.rows, len(rec.visible), len(rec.stmt))
		}
		// The first staged statement waited longest: from its start to the
		// return of the flush that committed it.
		if want := int64(2*(flushAt+1)-1) * 1e6; rec.visible[0] != want {
			t.Errorf("first statement became visible after %d ns, want %d", rec.visible[0], want)
		}
		if want := float64(w.rows) / (float64(w.endNs) / 1e9); !near(w.rate, want) {
			t.Errorf("rate %v, want %v", w.rate, want)
		}
	}

	// On a synchronous workload every statement commits itself.
	sync := toyInstance(t, "stmt-sync")
	rec, clock := &recorder{}, &fakeClock{}
	w, err := rec.runWindow(sync, time.Millisecond, clock.now)
	if err != nil {
		t.Fatal(err)
	}
	if w.calls != len(sync.cycle) || len(rec.visible) != w.calls || rec.visible[0] != 1e6 {
		t.Errorf("synchronous window: %d calls, %d visible samples, first %d ns", w.calls, len(rec.visible), rec.visible[0])
	}
}
