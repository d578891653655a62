package main

import (
	"fmt"
	"math"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's vocabulary; BENCHMARK.json at the repository root repeats them
// with direction and bound, and the smoke test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of the measured run (-trace 0), the same on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rows_per_s", "1/s"},
	{"stmt_p50_us", "us"},
	{"stmt_p95_us", "us"},
	{"visible_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"alloc_b_per_row", "B"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics of the traced run (-trace 1), grouped by the
// module they account for. "/row" is per base-table row the traced pass
// committed.
var perLayer = []metricDef{
	// ojv: the facade calls.
	{"ojv.stmt.busy_us_per_row", "us"},
	{"ojv.flush.count", "count"},
	{"ojv.flush.busy_us_per_row", "us"},
	{"ojv.flush.self_us_per_row", "us"},
	{"ojv.flush.components_mean", "count"},
	{"ojv.flush.component_overlap", "ratio"},
	{"ojv.read.busy_us_per_read", "us"},
	{"ojv.read.rows_per_read", "count"},
	{"ojv.stmt_p99_us", "us"},
	{"ojv.read_p99_ms", "ms"},
	// pipeline: staging, coalescing, planning.
	{"pipeline.enqueue.busy_us_per_row", "us"},
	{"pipeline.plan.busy_us_per_row", "us"},
	{"pipeline.rows.staged", "count"},
	{"pipeline.rows.coalesced", "count"},
	{"pipeline.coalesce_ratio", "ratio"},
	{"pipeline.prevalidated_ratio", "ratio"},
	{"pipeline.queue.depth_mean", "count"},
	{"pipeline.probe.enqueue_us_per_row", "us"},
	{"pipeline.probe.plan_us_per_row", "us"},
	// view: maintenance runs, their phases, epochs, shared plans.
	{"view.maintain.runs", "count"},
	{"view.maintain.busy_us_per_row", "us"},
	{"view.plan.busy_us_per_run", "us"},
	{"view.primary.eval.busy_us_per_row", "us"},
	{"view.primary.apply.busy_us_per_row", "us"},
	{"view.secondary.busy_us_per_row", "us"},
	{"view.rows.primary_per_row", "count"},
	{"view.rows.secondary_per_primary", "ratio"},
	{"view.commit.busy_us_per_run", "us"},
	{"view.undo.records_per_row", "count"},
	{"view.epoch.published", "count"},
	{"view.epoch.compactions_per_krow", "count"},
	{"view.shared.subtrees", "count"},
	{"view.shared.saved_ratio", "ratio"},
	{"view.bytes_per_view_byte", "ratio"},
	// exec: operator work counts.
	{"exec.rows.scanned_per_row", "count"},
	{"exec.join.index.probes_per_row", "count"},
	{"exec.join.hash.build_per_row", "count"},
	{"exec.join.hash.probes_per_row", "count"},
	{"exec.lambda.rows_per_row", "count"},
	{"exec.condense.rows_per_row", "count"},
	{"exec.examined_per_output", "ratio"},
	{"exec.op.rows_per_row.scan", "count"},
	{"exec.op.rows_per_row.join.index", "count"},
	{"exec.op.rows_per_row.join.hash", "count"},
	{"exec.op.rows_per_row.lambda", "count"},
	{"exec.op.rows_per_row.dedup", "count"},
	{"exec.op.rows_per_row.condense", "count"},
	{"exec.op.rows_per_row.groupby", "count"},
	{"exec.op.rows_per_row.shared.consume", "count"},
	{"exec.op.rows_per_row.other", "count"},
	// rel: base tables and their epochs.
	{"rel.insert.us_per_row", "us"},
	{"rel.delete.us_per_row", "us"},
	{"rel.update.us_per_row", "us"},
	{"rel.publish.us_per_call", "us"},
	{"rel.publish.compaction_ms", "ms"},
	{"rel.snapshot.rows_ms", "ms"},
	{"rel.self_us_per_row", "us"},
	{"rel.bytes_per_user_byte", "ratio"},
	// algebra: view definition and plan compilation.
	{"algebra.createview.ms_per_view", "ms"},
	// gk and the paper's Figure 5 relation (bulk-delta only).
	{"paper.ojv_core_ratio", "ratio"},
	{"paper.gk_ojv_ratio", "ratio"},
	{"gk.us_per_row", "us"},
	// obs: what tracing costs.
	{"obs.overhead_ratio", "ratio"},
	// The harness itself.
	{"bench.cal_ms", "ms"},
	{"bench.raw_rows_per_s", "1/s"},
	{"bench.raw_stmt_p50_us", "us"},
	{"bench.gc_cycles", "count"},
	{"bench.gc_pause_ms", "ms"},
	{"bench.ledger_coverage", "ratio"},
}

// withUnits checks that values holds exactly the metrics of defs, each a
// finite number, and attaches their units.
func withUnits(values map[string]float64, defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not produced", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{v, d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the benchmark's vocabulary", name)
		}
	}
	return out, nil
}
