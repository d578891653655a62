package main

import (
	"fmt"
	"runtime"
	"time"

	"ojv"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run reports on its last output line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// values are the metrics as the run produced them; finish checks them
	// against the vocabulary and fills Metrics.
	values map[string]float64
	// diag are further numbers that explain a run (sample counts,
	// calibration readings, collections). They are printed, never judged.
	diag map[string]float64
	// windows are the measured windows, printed one per line.
	windows []window
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, diag: map[string]float64{}}
}

// finish attaches units to the run's values, refusing a run that produced
// anything but exactly the metrics of defs.
func (out *outcome) finish(defs []metricDef) (*outcome, error) {
	var err error
	out.Metrics, err = withUnits(out.values, defs)
	return out, err
}

// runConfig is everything that shapes a run besides the program.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	sc       scale
	// setups is how many times the set-up is repeated; setup_s is their
	// median and the last one is the database the run measures.
	setups int
	// minWindow is the shortest measured window; a window is as many whole
	// cycles as it takes to fill it.
	minWindow time.Duration
	// think is the reader's pause between two reads.
	think time.Duration
	// outDir is where the traced run writes its spans.
	outDir string
}

func fullConfig(workload string, seed int64, seconds float64, outDir string) runConfig {
	return runConfig{
		workload: workload, seed: seed, seconds: seconds, sc: fullScale,
		setups: 3, minWindow: 2 * time.Second, think: 10 * time.Millisecond,
		outDir: outDir,
	}
}

// recorder collects one window's writer samples, in nanoseconds. Its
// buffers are reused from window to window.
type recorder struct {
	// stmt has one observation per write call (a Flush is a call of its own).
	stmt []int64
	// visible has one observation per non-flush write call: from its start to
	// the return of the call that committed it.
	visible      []int64
	pendingStart []time.Time
}

// window is one measured window, summarised.
type window struct {
	startNs, endNs int64 // since the measured segment began
	calls, rows    int
	// Per-window statistics: rows committed per second, write-call latency
	// (us), time to visibility (ms), read latency (ms).
	rate, stmtP50, stmtP95, visibleP50, readP50, readP95 float64
}

// runWindow applies whole cycles until at least minDur has passed, so every
// window of a run does the same work: the same statements, the same flushes.
// A cycle ends on a commit boundary, so a window does too.
func (r *recorder) runWindow(in *instance, minDur time.Duration, now func() time.Time) (window, error) {
	r.stmt, r.visible = r.stmt[:0], r.visible[:0]
	var w window
	start := now()
	for {
		for _, o := range in.cycle {
			t0 := now()
			err := in.apply(o)
			t1 := now()
			w.calls++
			if err != nil {
				return w, fmt.Errorf("%s %s: %w", o.kind, o.table, err)
			}
			r.stmt = append(r.stmt, t1.Sub(t0).Nanoseconds())
			if o.kind != opFlush {
				r.pendingStart = append(r.pendingStart, t0)
				w.rows += o.rowCount()
			}
			if in.commits(o) {
				for _, s := range r.pendingStart {
					r.visible = append(r.visible, t1.Sub(s).Nanoseconds())
				}
				r.pendingStart = r.pendingStart[:0]
			}
		}
		if d := now().Sub(start); d >= minDur {
			stmt := scaled(r.stmt, 1e3)
			w.rate = float64(w.rows) / d.Seconds()
			w.stmtP50, w.stmtP95 = percentile(stmt, 0.50), percentile(stmt, 0.95)
			w.visibleP50 = percentile(scaled(r.visible, 1e6), 0.50)
			w.endNs = d.Nanoseconds()
			return w, nil
		}
	}
}

// reader is the one reading client: every think interval it pins a view's
// snapshot, materialises its rows and checks the snapshot is whole (as many
// rows as it says) and not older than the last one it saw of that view.
type reader struct {
	views []*ojv.View
	think time.Duration
	stop  chan struct{}
	done  chan struct{}
	// The fields below belong to the goroutine until done is closed.
	endNs, durNs []int64
	attempted    int
	failed       int
}

func startReader(views []*ojv.View, think time.Duration, base time.Time) *reader {
	rd := &reader{
		views: views, think: think, stop: make(chan struct{}), done: make(chan struct{}),
	}
	go rd.loop(base)
	return rd
}

func (rd *reader) loop(base time.Time) {
	defer close(rd.done)
	last := make([]uint64, len(rd.views))
	timer := time.NewTimer(rd.think)
	defer timer.Stop()
	for i := 0; ; i++ {
		select {
		case <-rd.stop:
			return
		case <-timer.C:
		}
		vi := i % len(rd.views)
		t0 := time.Now()
		snap := rd.views[vi].Snapshot()
		rows := snap.Rows()
		t1 := time.Now()
		rd.attempted++
		if len(rows) != snap.Len() || snap.Epoch() < last[vi] {
			rd.failed++
		}
		last[vi] = snap.Epoch()
		rd.endNs = append(rd.endNs, t1.Sub(base).Nanoseconds())
		rd.durNs = append(rd.durNs, t1.Sub(t0).Nanoseconds())
		timer.Reset(rd.think)
	}
}

func (rd *reader) close() {
	close(rd.stop)
	<-rd.done
}

// runMeasured is the untraced run: it reports the end-to-end metrics.
func runMeasured(cfg runConfig) (*outcome, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	out := newOutcome()
	cal := theCalibrator()

	// Set-up, repeated: setup_s is the median, brought to reference speed by
	// the shots taken round the set-ups; the last database is measured.
	var in *instance
	var setupS []float64
	shots := cal.burst(nil)
	for i := 0; i < cfg.setups; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
			in = nil
		}
		runtime.GC()
		t0 := time.Now()
		next, err := setup(cfg.workload, cfg.seed, cfg.sc, obsOptions{})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		in = next
		shots = cal.burst(shots)
	}
	out.values["setup_s"] = median(setupS) * speedFactor(shots)
	out.diag["raw.setup_s"] = median(setupS)

	// The count segment: a fixed list of operations, so its allocation
	// figure repeats; it is the warm-up of the measured segment as well.
	initial := in.fingerprint()
	seg, err := runPass(in, nil)
	if err != nil {
		return nil, fmt.Errorf("count segment: %w", err)
	}
	out.Attempted += len(in.cycle)
	restored := equalFingerprints(initial, in.fingerprint())
	out.values["alloc_b_per_row"] = float64(seg.allocBytes) / float64(seg.rows)
	// Live heap is read here, one cycle after set-up, not at the end of the
	// run: how many cycles a run gets through depends on the clock, and with
	// it where every overlay chain stands between two compactions — several
	// per cent of the heap on the many-views workload. The end-of-run figure
	// is printed beside it, so a heap that grows with the cycles still shows.
	out.values["live_heap_mb"] = liveHeapBytes() / (1 << 20)
	rec := &recorder{stmt: make([]int64, 0, 1<<18), visible: make([]int64, 0, 1<<18)}

	// The measured segment: one writer (this goroutine), one reader, windows
	// until the time is up, a burst of calibration shots before each and
	// after the last.
	shots = cal.burst(shots[:0])
	var gcBefore, gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	base := time.Now()
	rd := startReader(in.views, cfg.think, base)
	var windows []window
	var runErr error
	segment := time.Duration(cfg.seconds * float64(time.Second))
	for len(windows) == 0 || time.Since(base) < segment {
		offset := time.Since(base).Nanoseconds()
		w, err := rec.runWindow(in, min(cfg.minWindow, segment), time.Now)
		out.Attempted += w.calls
		if err != nil {
			out.Failed++
			runErr = err
			break
		}
		w.startNs, w.endNs = offset, offset+w.endNs
		windows = append(windows, w)
		shots = cal.burst(shots)
	}
	rd.close()
	runtime.ReadMemStats(&gcAfter)
	out.Attempted += rd.attempted
	out.Failed += rd.failed
	if runErr != nil {
		return out, runErr
	}
	if err := in.close(); err != nil {
		return out, err
	}
	restored = restored && equalFingerprints(initial, in.fingerprint())
	out.Correct = restored && out.Failed == 0

	// Reads belong to the window they ended in.
	reads, i := 0, 0
	for wi := range windows {
		w := &windows[wi]
		var ms []float64
		for ; i < len(rd.endNs) && rd.endNs[i] <= w.endNs; i++ {
			ms = append(ms, float64(rd.durNs[i])/1e6)
		}
		w.readP50, w.readP95 = percentile(ms, 0.50), percentile(ms, 0.95)
		reads += len(ms)
	}
	// Across windows the quartile on the good side is reported, not the
	// median: the box's disturbances only ever slow a window down, so the
	// better windows are the steadier estimate (README, "Steadiness"). Every
	// window does the same work, so none is better for doing less. Then the
	// run's one speed factor brings the value to reference speed.
	factor := speedFactor(shots)
	report := func(name string, higherIsBetter bool, f func(w window) float64) {
		vals := make([]float64, len(windows))
		for i, w := range windows {
			vals[i] = f(w)
		}
		raw, scale := percentile(vals, 0.25), factor
		if higherIsBetter {
			raw, scale = percentile(vals, 0.75), 1/factor
		}
		out.values[name] = raw * scale
		out.diag["raw."+name] = raw
	}
	report("rows_per_s", true, func(w window) float64 { return w.rate })
	report("stmt_p50_us", false, func(w window) float64 { return w.stmtP50 })
	report("stmt_p95_us", false, func(w window) float64 { return w.stmtP95 })
	report("visible_p50_ms", false, func(w window) float64 { return w.visibleP50 })
	report("read_p50_ms", false, func(w window) float64 { return w.readP50 })

	out.diag["cal_shot_ms"] = median(shots)
	out.diag["speed_factor"] = factor
	out.diag["windows"] = float64(len(windows))
	out.diag["read_samples"] = float64(reads)
	out.diag["gc_cycles"] = float64(gcAfter.NumGC - gcBefore.NumGC)
	out.diag["gc_pause_ms"] = float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs) / 1e6
	out.windows = windows

	// The harness's sample buffers are dead by now and are collected.
	out.diag["live_heap_end_mb"] = liveHeapBytes() / (1 << 20)
	runtime.KeepAlive(in)
	return out.finish(endToEnd)
}
