package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ojv"
)

// passResult is one full cycle applied by a lone writer.
type passResult struct {
	rows       int
	allocBytes uint64
	busyUs     float64 // time inside write calls
	wall       time.Duration
	latUs      []float64 // one per write call
	gcCycles   uint32
	gcPauseNs  uint64
}

// runPass applies one whole cycle with nothing else running. With a tracer
// it opens one harness root span round every facade call, carrying the
// call's ordinal as its id, so the program's own root spans can be hung
// under the call they ran in. Without one it is the count segment: the
// rows, allocation and busy time of a fixed list of operations.
func runPass(in *instance, tr *ojv.Tracer) (passResult, error) {
	res := passResult{latUs: make([]float64, 0, len(in.cycle))}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i, o := range in.cycle {
		var sp *ojv.Span
		if tr != nil {
			name := spanStmt
			if o.kind == opFlush {
				name = spanFlush
			}
			sp = tr.StartSpan(name).SetInt("id", int64(i)).SetStr("op", o.kind.String())
			if o.table != "" {
				sp.SetStr("table", o.table)
			}
		}
		t0 := time.Now()
		err := in.apply(o)
		d := time.Since(t0)
		sp.End()
		if err != nil {
			return res, fmt.Errorf("%s %s: %w", o.kind, o.table, err)
		}
		us := float64(d.Nanoseconds()) / 1e3
		res.busyUs += us
		res.latUs = append(res.latUs, us)
		res.rows += o.rowCount()
	}
	res.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	res.gcCycles = after.NumGC - before.NumGC
	res.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	return res, nil
}

// checkedCycle applies one cycle and runs the recompute oracle twice: at the
// commit boundary nearest the middle, when the cycle's inserted rows are in
// the views, and at the end, when they are gone again.
func checkedCycle(in *instance) error {
	mid := len(in.cycle) / 2
	for mid < len(in.cycle) && !in.commits(in.cycle[mid]) {
		mid++
	}
	check := func(when string) error {
		for _, v := range in.checkViews {
			if err := v.Check(); err != nil {
				return fmt.Errorf("view %s differs from its recomputation %s: %w", v.Name(), when, err)
			}
		}
		return nil
	}
	for i, o := range in.cycle {
		if err := in.apply(o); err != nil {
			return fmt.Errorf("%s %s: %w", o.kind, o.table, err)
		}
		if i == mid {
			if err := check("mid-cycle"); err != nil {
				return err
			}
		}
	}
	return check("after the cycle")
}

// readProbe issues n reader operations against the idle database.
func readProbe(in *instance, n int) (latMs []float64, rows int) {
	for i := 0; i < n; i++ {
		v := in.views[i%len(in.views)]
		t0 := time.Now()
		snap := v.Snapshot()
		rs := snap.Rows()
		latMs = append(latMs, float64(time.Since(t0).Nanoseconds())/1e6)
		rows += len(rs)
	}
	return latMs, rows
}

// execKinds are the operator kinds whose output is reported by name; every
// other operator is summed under "other". Operator spans cannot give a time
// per kind: in a pull pipeline every operator is open from the first pull to
// the last, so a span's duration is a lifetime, and lifetime minus children
// lands the whole pipeline on its leaf scan. Rows emitted is the work count
// the spans do carry.
var execKinds = []string{"scan", "join.index", "join.hash", "lambda", "dedup", "condense", "groupby", "shared.consume"}

// runTraced is the traced run: it reports the per-layer metrics. It applies
// exactly the count segment's operations to an untraced database (the base
// of the tracing overhead) and to a traced one, then probes rel, pipeline
// and the paper's baselines directly.
func runTraced(cfg runConfig) (*outcome, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	out := newOutcome()
	m := out.values
	cal := theCalibrator()
	shots := cal.burst(nil)

	// Two databases from the same seed: one plain, one with a Tracer and a
	// Metrics registry passed through the public options. Each gets a
	// warm-up cycle; the traced one's doubles as the oracle check.
	plain, err := setup(cfg.workload, cfg.seed, cfg.sc, obsOptions{})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if _, err := runPass(plain, nil); err != nil {
		return nil, err
	}
	tr, reg := ojv.NewTracer(), ojv.NewMetrics()
	in, err := setup(cfg.workload, cfg.seed, cfg.sc, obsOptions{tracer: tr, metrics: reg, measureHeap: true})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	initial := in.fingerprint()
	if err := checkedCycle(in); err != nil {
		return nil, err
	}
	out.Attempted += 2 * len(in.cycle)

	// Untraced and traced passes alternate — at least one pair, then until
	// four seconds have gone by or five pairs are done — and the tracing
	// overhead is the ratio of their summed busy times. Every per-layer
	// number comes from the first traced pass alone: it starts from the same
	// state on every run, so its counts repeat.
	var plainPass, pass passResult
	var counters map[string]int64
	var roots []*node
	plainBusyUs, tracedBusyUs := 0.0, 0.0
	start := time.Now()
	for n := 0; n == 0 || (n < 5 && time.Since(start) < 4*time.Second); n++ {
		p, err := runPass(plain, nil)
		if err != nil {
			return nil, err
		}
		tr.Reset()
		before := reg.Snapshot()
		t, err := runPass(in, tr)
		if err != nil {
			return nil, err
		}
		out.Attempted += 2 * len(in.cycle)
		plainBusyUs += p.busyUs
		tracedBusyUs += t.busyUs
		if n > 0 {
			continue
		}
		plainPass, pass = p, t
		counters = reg.Snapshot()
		for name, v := range before {
			counters[name] -= v
		}
		if roots, err = spanForest(tr); err != nil {
			return nil, err
		}
		if err := writeTrace(tr, cfg.outDir, cfg.workload); err != nil {
			return nil, err
		}
	}
	if err := plain.close(); err != nil {
		return nil, err
	}
	plain = nil
	shots = cal.burst(shots)
	restored := equalFingerprints(initial, in.fingerprint())

	readMs, readRows := readProbe(in, 200)
	out.Attempted += len(readMs)

	l := buildLedger(roots)

	rows := float64(pass.rows)
	perRow := func(x float64) float64 { return x / rows }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := func(name string) float64 { return float64(counters[name]) }
	batch := in.batch != nil

	// ojv: the facade calls themselves.
	stmts, flushes := l.get(spanStmt), l.get(spanFlush)
	facadeBusy := stmts.busy + flushes.busy
	comps, vflush := l.get("flush.component"), l.get("view.flush")
	m["ojv.stmt.busy_us_per_row"] = perRow(stmts.busy)
	m["ojv.flush.count"] = float64(flushes.count)
	m["ojv.flush.busy_us_per_row"] = perRow(flushes.busy)
	m["ojv.flush.self_us_per_row"] = perRow(flushes.self + vflush.self + comps.self + l.get("commit").self)
	m["ojv.flush.components_mean"] = ratio(float64(comps.count), float64(vflush.count))
	m["ojv.flush.component_overlap"] = 0
	if comps.count > 0 {
		m["ojv.flush.component_overlap"] = ratio(comps.busy, vflush.busy)
	}
	readBusyMs := 0.0
	for _, d := range readMs {
		readBusyMs += d
	}
	m["ojv.read.busy_us_per_read"] = readBusyMs * 1e3 / float64(len(readMs))
	m["ojv.read.rows_per_read"] = float64(readRows) / float64(len(readMs))
	m["ojv.stmt_p99_us"] = percentile(pass.latUs, 0.99)
	m["ojv.read_p99_ms"] = percentile(readMs, 0.99)

	// pipeline: staging and planning, zero on the synchronous workloads.
	enqueue := 0.0
	if batch {
		enqueue = stmts.busy
	}
	m["pipeline.enqueue.busy_us_per_row"] = perRow(enqueue)
	m["pipeline.plan.busy_us_per_row"] = perRow(l.get("flush.plan").busy)
	staged, coalesced, flushed := c("view.flush.rows.staged"), c("view.flush.rows.coalesced"), c("view.flush.rows.flushed")
	m["pipeline.rows.staged"] = staged
	m["pipeline.rows.coalesced"] = coalesced
	m["pipeline.coalesce_ratio"] = ratio(coalesced, staged)
	m["pipeline.prevalidated_ratio"] = ratio(c("view.flush.prevalidated"), c("view.flush.count"))
	m["pipeline.queue.depth_mean"] = ratio(c("view.flush.queue.depth.sum"), c("view.flush.queue.depth.count"))

	// view: maintenance runs and their phases.
	maint, commit := l.get("view.maintain"), l.get("changeset.commit")
	primary := c("view.rows.primary")
	m["view.maintain.runs"] = float64(maint.count)
	m["view.maintain.busy_us_per_row"] = perRow(maint.busy)
	m["view.plan.busy_us_per_run"] = ratio(l.get("plan").busy, float64(maint.count))
	m["view.primary.eval.busy_us_per_row"] = perRow(l.get("primary.eval").busy)
	m["view.primary.apply.busy_us_per_row"] = perRow(l.get("primary.apply").busy)
	m["view.secondary.busy_us_per_row"] = perRow(l.get("secondary").busy)
	m["view.rows.primary_per_row"] = perRow(primary)
	m["view.rows.secondary_per_primary"] = ratio(c("view.rows.secondary"), primary)
	m["view.commit.busy_us_per_run"] = ratio(commit.busy, float64(commit.count))
	m["view.undo.records_per_row"] = perRow(c("view.undo.records"))
	m["view.epoch.published"] = c("view.epoch.published")
	m["view.epoch.compactions_per_krow"] = perRow(c("view.epoch.compactions")) * 1e3
	consumer, producer, saved := c("view.shared.rows.consumer"), c("view.shared.rows.producer"), c("view.shared.rows.saved")
	m["view.shared.subtrees"] = c("view.shared.subtrees")
	m["view.shared.saved_ratio"] = ratio(saved, consumer)

	// exec: the operators under primary.eval.
	scanned, idxProbes := c("exec.rows.scanned"), c("exec.join.index.probe_rows")
	hashBuild, hashProbes := c("exec.join.hash.build_rows"), c("exec.join.hash.probe_rows")
	m["exec.rows.scanned_per_row"] = perRow(scanned)
	m["exec.join.index.probes_per_row"] = perRow(idxProbes)
	m["exec.join.hash.build_per_row"] = perRow(hashBuild)
	m["exec.join.hash.probes_per_row"] = perRow(hashProbes)
	m["exec.lambda.rows_per_row"] = perRow(c("exec.lambda.rows"))
	m["exec.condense.rows_per_row"] = perRow(c("exec.condense.rows"))
	m["exec.examined_per_output"] = ratio(scanned+idxProbes+hashBuild+hashProbes, primary)
	for _, kind := range append(execKinds, "other") {
		m["exec.op.rows_per_row."+kind] = perRow(l.execRows(kind, execKinds))
	}

	// rel: what is left of a call once view and pipeline spans are taken out
	// (base-table apply, epoch publish, locks), then the direct probes.
	relSelf := l.get("flush.step").self
	if !batch {
		relSelf = stmts.self
	}
	m["rel.self_us_per_row"] = perRow(relSelf)
	viewBytes := 0
	for _, v := range in.views {
		viewBytes += encodedBytes(v.Rows())
	}
	m["view.bytes_per_view_byte"] = ratio(in.viewHeapBytes, float64(viewBytes))
	m["algebra.createview.ms_per_view"] = float64(in.createViewNs) / 1e6 / float64(len(in.views))

	if err := in.close(); err != nil {
		return nil, err
	}
	twin, bytesPerByte, err := twinCatalog(in)
	if err != nil {
		return nil, err
	}
	m["rel.bytes_per_user_byte"] = bytesPerByte
	if err := relProbe(twin, in, m); err != nil {
		return nil, fmt.Errorf("rel probe: %w", err)
	}
	for _, name := range []string{"pipeline.probe.enqueue_us_per_row", "pipeline.probe.plan_us_per_row"} {
		m[name] = 0
	}
	if batch {
		if err := pipelineProbe(twin, in, m); err != nil {
			return nil, fmt.Errorf("pipeline probe: %w", err)
		}
	}
	m["paper.ojv_core_ratio"] = 0
	m["paper.gk_ojv_ratio"] = 0
	m["gk.us_per_row"] = 0
	if cfg.workload == "bulk-delta" {
		if err := paperProbe(twin, in, m); err != nil {
			return nil, fmt.Errorf("paper probe: %w", err)
		}
	}
	shots = cal.burst(shots)

	// obs and the harness itself.
	m["obs.overhead_ratio"] = ratio(tracedBusyUs, plainBusyUs)
	m["bench.cal_ms"] = median(shots)
	m["bench.raw_rows_per_s"] = float64(plainPass.rows) / plainPass.wall.Seconds()
	m["bench.raw_stmt_p50_us"] = median(plainPass.latUs)
	m["bench.gc_cycles"] = float64(pass.gcCycles)
	m["bench.gc_pause_ms"] = float64(pass.gcPauseNs) / 1e6
	strayUs := 0.0
	for _, s := range l.strays {
		strayUs += s.dur
	}
	coverage := 1 - ratio(flushes.self+strayUs, facadeBusy)
	m["bench.ledger_coverage"] = coverage

	// Ledger sanity: the identities the program promises, checked where the
	// numbers are produced.
	var broken []string
	if coverage < 0.90 {
		broken = append(broken, fmt.Sprintf("ledger covers %.3f of facade time, want >= 0.90", coverage))
	}
	if len(l.strays) > 0 {
		broken = append(broken, fmt.Sprintf("%d program spans ran outside every facade call", len(l.strays)))
	}
	if maint.count == 0 {
		broken = append(broken, "no view.maintain span was recorded")
	}
	if staged != flushed+coalesced {
		broken = append(broken, fmt.Sprintf("pipeline rows: staged %v != flushed %v + coalesced %v", staged, flushed, coalesced))
	}
	if consumer != producer+saved {
		broken = append(broken, fmt.Sprintf("shared rows: consumer %v != producer %v + saved %v", consumer, producer, saved))
	}
	if !restored {
		broken = append(broken, "the cycle did not restore the database")
	}
	for _, b := range broken {
		fmt.Fprintln(os.Stderr, "benchmark: ledger check failed:", b)
	}
	out.Failed = len(broken)
	out.Correct = len(broken) == 0
	return out.finish(perLayer)
}

// writeTrace writes the traced pass's spans in Chrome trace format.
func writeTrace(tr *ojv.Tracer, dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
