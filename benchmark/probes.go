package main

import (
	"bytes"
	"sort"
	"time"

	"ojv/internal/gk"
	"ojv/internal/pipeline"
	"ojv/internal/rel"
	"ojv/internal/tpch"
	"ojv/internal/view"
)

// The probes time single modules through their own public functions, on a
// view-less twin of the workload's catalog (Database.Save → rel.LoadCatalog),
// so a module's cost is known without the layers above it. Every probe
// leaves the twin as it found it.

const probeReps = 3

// twinCatalog loads a copy of the instance's base tables and returns it with
// the live heap it occupies per byte of encoded row data.
func twinCatalog(in *instance) (*rel.Catalog, float64, error) {
	var buf bytes.Buffer
	if err := in.db.Save(&buf); err != nil {
		return nil, 0, err
	}
	before := liveHeapBytes()
	cat, err := rel.LoadCatalog(&buf)
	if err != nil {
		return nil, 0, err
	}
	// The facade publishes epochs from the start, so mutations on its
	// catalog pay for dirty tracking; the twin must too.
	cat.PublishEpochs()
	heap := liveHeapBytes() - before
	userBytes := 0
	for _, name := range cat.TableNames() {
		userBytes += encodedBytes(cat.Table(name).Rows())
	}
	return cat, heap / float64(userBytes), nil
}

// relProbe times the catalog's mutation, publish and snapshot functions with
// the instance's probe rows.
func relProbe(cat *rel.Catalog, in *instance, m map[string]float64) error {
	table, rows := in.probeTable, in.probeRows
	t := cat.Table(table)
	keys := make([][]rel.Value, len(rows))
	for i, r := range rows {
		keys[i] = r.Project(t.KeyCols())
	}
	n := float64(len(rows))
	var insUs, updUs, delUs []float64
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		if err := cat.Insert(table, rows); err != nil {
			return err
		}
		t1 := time.Now()
		for i := range rows {
			if _, err := cat.Update(table, keys[i], rows[i]); err != nil {
				return err
			}
		}
		t2 := time.Now()
		if _, err := cat.Delete(table, keys); err != nil {
			return err
		}
		t3 := time.Now()
		cat.PublishEpochs()
		insUs = append(insUs, float64(t1.Sub(t0).Nanoseconds())/1e3/n)
		updUs = append(updUs, float64(t2.Sub(t1).Nanoseconds())/1e3/n)
		delUs = append(delUs, float64(t3.Sub(t2).Nanoseconds())/1e3/n)
	}
	m["rel.insert.us_per_row"] = median(insUs)
	m["rel.update.us_per_row"] = median(updUs)
	m["rel.delete.us_per_row"] = median(delUs)

	// Sixteen publishes of one dirty row each: more than one overlay chain,
	// so at least one of them compacts.
	var pubUs []float64
	for i := 0; i < 16; i++ {
		if err := cat.Insert(table, rows[i%len(rows):i%len(rows)+1]); err != nil {
			return err
		}
		t0 := time.Now()
		cat.PublishEpochs()
		pubUs = append(pubUs, float64(time.Since(t0).Nanoseconds())/1e3)
		if _, err := cat.Delete(table, keys[i%len(rows):i%len(rows)+1]); err != nil {
			return err
		}
	}
	cat.PublishEpochs()
	sort.Float64s(pubUs)
	m["rel.publish.us_per_call"] = median(pubUs)
	m["rel.publish.compaction_ms"] = pubUs[len(pubUs)-1] / 1e3

	var snapMs []float64
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		_ = cat.Snapshot(table).Rows()
		snapMs = append(snapMs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	m["rel.snapshot.rows_ms"] = median(snapMs)
	return nil
}

// pipelineProbe dry-runs a private delta queue: every probe row is staged by
// a 1-row insert, replaced by an update, planned, and annihilated by a
// delete. Nothing is flushed.
func pipelineProbe(cat *rel.Catalog, in *instance, m map[string]float64) error {
	table, rows := in.probeTable, in.probeRows
	t := cat.Table(table)
	n := float64(len(rows))
	q := pipeline.New(cat)
	var enqUs, planUs []float64
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		for _, r := range rows {
			if err := q.Insert(table, []rel.Row{r}); err != nil {
				return err
			}
		}
		for _, r := range rows {
			if err := q.Update(table, r.Project(t.KeyCols()), r); err != nil {
				return err
			}
		}
		t1 := time.Now()
		q.Plan()
		t2 := time.Now()
		for _, r := range rows {
			if _, err := q.Delete(table, [][]rel.Value{r.Project(t.KeyCols())}); err != nil {
				return err
			}
		}
		t3 := time.Now()
		q.Reset()
		enqUs = append(enqUs, float64((t1.Sub(t0)+t3.Sub(t2)).Nanoseconds())/1e3/(3*n))
		planUs = append(planUs, float64(t2.Sub(t1).Nanoseconds())/1e3/n)
	}
	m["pipeline.probe.enqueue_us_per_row"] = median(enqUs)
	m["pipeline.probe.plan_us_per_row"] = median(planUs)
	return nil
}

// paperProbe reproduces the relation Figure 5 of the paper plots, at one
// delta size: the cost of maintaining V3 against the cost of maintaining its
// core view (all joins inner) and against Griffin–Kumar maintenance of V3,
// for one lineitem delta inserted and deleted again. It is reported so that a
// speed-up that breaks the paper's relation is seen.
func paperProbe(cat *rel.Catalog, in *instance, m map[string]float64) error {
	newMaintainer := func(name string, core bool) (*view.Maintainer, error) {
		expr := tpch.V3Expr()
		if core {
			expr = tpch.V3CoreExpr()
		}
		def, err := view.Define(cat, name, expr, tpch.V3Output())
		if err != nil {
			return nil, err
		}
		mt, err := view.NewMaintainer(def, view.Options{})
		if err != nil {
			return nil, err
		}
		return mt, mt.Materialize()
	}
	v3, err := newMaintainer("V3probe", false)
	if err != nil {
		return err
	}
	core, err := newMaintainer("V3core", true)
	if err != nil {
		return err
	}
	gkv, err := gk.New(cat, "V3gk", tpch.V3Expr(), tpch.V3Output())
	if err != nil {
		return err
	}
	if err := gkv.Materialize(); err != nil {
		return err
	}

	rows := in.probeRows
	keys := make([][]rel.Value, len(rows))
	for i, r := range rows {
		keys[i] = lineitemKey(r)
	}
	timed := func(f func() error) (float64, error) {
		t0 := time.Now()
		err := f()
		return float64(time.Since(t0).Nanoseconds()) / 1e3, err
	}
	var v3Us, coreUs, gkUs []float64
	for rep := 0; rep < probeReps; rep++ {
		var a, b, c [2]float64
		if err := cat.Insert("lineitem", rows); err != nil {
			return err
		}
		if a[0], err = timed(func() error { _, err := v3.OnInsert("lineitem", rows); return err }); err != nil {
			return err
		}
		if b[0], err = timed(func() error { _, err := core.OnInsert("lineitem", rows); return err }); err != nil {
			return err
		}
		if c[0], err = timed(func() error { return gkv.OnInsert("lineitem", rows) }); err != nil {
			return err
		}
		deleted, err := cat.Delete("lineitem", keys)
		if err != nil {
			return err
		}
		if a[1], err = timed(func() error { _, err := v3.OnDelete("lineitem", deleted); return err }); err != nil {
			return err
		}
		if b[1], err = timed(func() error { _, err := core.OnDelete("lineitem", deleted); return err }); err != nil {
			return err
		}
		if c[1], err = timed(func() error { return gkv.OnDelete("lineitem", deleted) }); err != nil {
			return err
		}
		v3Us = append(v3Us, a[0]+a[1])
		coreUs = append(coreUs, b[0]+b[1])
		gkUs = append(gkUs, c[0]+c[1])
	}
	m["paper.ojv_core_ratio"] = median(v3Us) / median(coreUs)
	m["paper.gk_ojv_ratio"] = median(gkUs) / median(v3Us)
	m["gk.us_per_row"] = median(gkUs) / float64(2*len(rows))
	return nil
}
