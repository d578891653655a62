// Package oracle implements a differential testing harness for view
// maintenance: it generates random SPOJ and SPOJG view shapes over the
// shared five-table random catalog, drives them through mixed
// insert/delete/modify scripts, and compares the incrementally maintained
// contents against a full recompute after every single step (via
// view.Check, which consults both independent recompute oracles).
//
// The harness is deterministic: one seed fixes the catalog, the view shape,
// and the whole workload, so any reported divergence reproduces with
// RunSeed(seed, ...) alone. When Observe is set the run also enables the
// obs tracing and metrics layer and cross-checks, after every step, that
// the registry's row counters moved by exactly the amounts the returned
// MaintStats report and that the recorded span tree is well-formed — so
// the observability layer itself is under differential test, not just the
// maintenance math.
package oracle

import (
	"fmt"
	"math/rand"

	"ojv/internal/algebra"
	"ojv/internal/fixture"
	"ojv/internal/obs"
	"ojv/internal/rel"
	"ojv/internal/view"
)

// Config describes one oracle corpus: Seeds consecutive seeds starting at
// SeedBase, each run for Steps mixed update steps over a Rows-per-table
// catalog, across every (strategy, parallelism) combination.
type Config struct {
	Seeds       int
	SeedBase    int64
	Steps       int
	Rows        int
	Strategies  []view.Strategy
	Parallelism []int
	// Observe enables tracing and metrics on every maintainer and verifies
	// the per-step metric deltas against MaintStats.
	Observe bool
}

// Defaults fills zero fields with the short-corpus defaults.
func (c Config) Defaults() Config {
	if c.Seeds == 0 {
		c.Seeds = 6
	}
	if c.Steps == 0 {
		c.Steps = 12
	}
	if c.Rows == 0 {
		c.Rows = 20
	}
	if len(c.Strategies) == 0 {
		c.Strategies = []view.Strategy{view.StrategyFromView, view.StrategyFromBase}
	}
	if len(c.Parallelism) == 0 {
		c.Parallelism = []int{1, 4}
	}
	return c
}

// Combo names one (seed, strategy, parallelism) run of a corpus.
type Combo struct {
	Seed        int64
	Strategy    view.Strategy
	Parallelism int
}

// Combos expands a config into its full run list.
func (c Config) Combos() []Combo {
	c = c.Defaults()
	var out []Combo
	for s := 0; s < c.Seeds; s++ {
		for _, st := range c.Strategies {
			for _, p := range c.Parallelism {
				out = append(out, Combo{Seed: c.SeedBase + int64(s), Strategy: st, Parallelism: p})
			}
		}
	}
	return out
}

// Run executes the whole corpus and returns the first divergence, tagged
// with the combo that produced it.
func Run(cfg Config) error {
	cfg = cfg.Defaults()
	for _, combo := range cfg.Combos() {
		if err := RunSeed(combo.Seed, combo.Strategy, combo.Parallelism, cfg.Steps, cfg.Rows, cfg.Observe); err != nil {
			return fmt.Errorf("seed %d strategy %v parallelism %d: %w",
				combo.Seed, combo.Strategy, combo.Parallelism, err)
		}
	}
	return nil
}

// RunSeed executes one deterministic differential run. The seed fixes
// everything: catalog contents, view shape (about one in four shapes gets a
// group-by on top, exercising the SPOJG path), and the update script. The
// view is checked against full recomputes after materialization and after
// every step.
func RunSeed(seed int64, strategy view.Strategy, parallelism int, steps, rows int, observe bool) error {
	rng := rand.New(rand.NewSource(seed))
	cat, err := fixture.RandCatalog(rng, rows)
	if err != nil {
		return err
	}
	expr := fixture.RandSPOJ(rng)
	def, err := defineRandView(cat, expr, rng)
	if err != nil {
		return err
	}
	opts := view.Options{Strategy: strategy, Parallelism: parallelism, VerifyPlans: true}
	if def.Agg != nil && strategy == view.StrategyFromView {
		// An aggregation view stores only group rows, so term extraction
		// from the view is impossible (Section 5.3); the planner rejects
		// the combination outright.
		opts.Strategy = view.StrategyFromBase
	}
	if observe {
		opts.Tracer = obs.NewTracer()
		opts.Metrics = obs.NewRegistry()
	}
	m, err := view.NewMaintainer(def, opts)
	if err != nil {
		return err
	}
	if err := m.Materialize(); err != nil {
		return fmt.Errorf("materialize %s: %w", expr, err)
	}
	if err := view.Check(m); err != nil {
		return fmt.Errorf("initial contents of %s: %w", expr, err)
	}
	opts.Tracer.Reset()

	tables := def.Tables()
	nextKey := int64(rows) + 1000
	for step := 0; step < steps; step++ {
		table := tables[rng.Intn(len(tables))]
		var before map[string]int64
		if observe {
			before = opts.Metrics.Snapshot()
		}
		stats, desc, err := randomStep(cat, m, rng, table, &nextKey)
		if err != nil {
			return fmt.Errorf("step %d (%s) on view %s: %w", step, desc, expr, err)
		}
		if stats == nil {
			continue // step degenerated to a no-op (e.g. delete from empty table)
		}
		if err := view.Check(m); err != nil {
			return fmt.Errorf("step %d (%s) on view %s: %w", step, desc, expr, err)
		}
		if observe {
			if err := checkObserved(opts.Tracer, opts.Metrics, before, stats); err != nil {
				return fmt.Errorf("step %d (%s) on view %s: %w", step, desc, expr, err)
			}
			opts.Tracer.Reset()
		}
	}
	return nil
}

// defineRandView wraps about a quarter of the random SPOJ shapes into an
// aggregation view (group by one table's join attribute, COUNT(*) plus a
// SUM over another table's payload); the rest become plain SPOJ views
// projecting every column.
func defineRandView(cat *rel.Catalog, expr algebra.Expr, rng *rand.Rand) (*view.Definition, error) {
	tables := algebra.SortedTables(expr)
	if rng.Intn(4) == 0 {
		gt := tables[rng.Intn(len(tables))]
		st := tables[rng.Intn(len(tables))]
		agg := view.AggSpec{
			GroupCols: []algebra.ColRef{algebra.Col(gt, gt+"j")},
			Aggs: []algebra.Aggregate{
				{Func: algebra.AggCount, Name: "n"},
				{Func: algebra.AggSum, Col: algebra.Col(st, st+"v"), Name: "sv"},
			},
		}
		return view.DefineAggregate(cat, "ov", expr, agg)
	}
	return view.Define(cat, "ov", expr, fixture.RandOutput(cat, expr))
}

// randomStep applies one random base-table update — insert, delete or
// modify — to both the catalog and the maintained view, and returns the
// maintenance stats plus a short description for error messages. A nil
// stats result (with nil error) means the step degenerated to a no-op.
func randomStep(cat *rel.Catalog, m *view.Maintainer, rng *rand.Rand, table string, nextKey *int64) (*view.MaintStats, string, error) {
	switch rng.Intn(3) {
	case 0: // insert fresh-keyed rows
		var rows []rel.Row
		for i := 0; i < 1+rng.Intn(4); i++ {
			rows = append(rows, fixture.RandRow(rng, *nextKey))
			*nextKey++
		}
		if err := cat.Insert(table, rows); err != nil {
			return nil, "insert", err
		}
		stats, err := m.OnInsert(table, rows)
		return stats, fmt.Sprintf("insert %d rows into %s", len(rows), table), err
	case 1: // delete existing keys
		keys := pickKeys(cat.Table(table).Rows(), rng, 1+rng.Intn(3))
		if len(keys) == 0 {
			return nil, "delete (empty table)", nil
		}
		deleted, err := cat.Delete(table, keys)
		if err != nil {
			return nil, "delete", err
		}
		stats, err := m.OnDelete(table, deleted)
		return stats, fmt.Sprintf("delete %d rows from %s", len(deleted), table), err
	default: // modify: same keys, fresh attribute values
		keys := pickKeys(cat.Table(table).Rows(), rng, 1+rng.Intn(2))
		if len(keys) == 0 {
			return nil, "modify (empty table)", nil
		}
		olds, err := cat.Delete(table, keys)
		if err != nil {
			return nil, "modify", err
		}
		news := make([]rel.Row, len(olds))
		for i, old := range olds {
			j := rel.Value(rel.Int(rng.Int63n(7)))
			if rng.Intn(6) == 0 {
				j = rel.Null
			}
			news[i] = rel.Row{old[0], j, rel.Int(rng.Int63n(100))}
		}
		if err := cat.Insert(table, news); err != nil {
			return nil, "modify", err
		}
		stats, err := m.OnModify(table, olds, news)
		return stats, fmt.Sprintf("modify %d rows of %s", len(olds), table), err
	}
}

// pickKeys samples up to n distinct primary keys from a table's current
// rows (every RandCatalog table keys on its first column),
// deterministically for a given rng state.
func pickKeys(all []rel.Row, rng *rand.Rand, n int) [][]rel.Value {
	if len(all) == 0 {
		return nil
	}
	rel.SortRows(all)
	seen := make(map[string]bool)
	var keys [][]rel.Value
	for i := 0; i < n && i < len(all); i++ {
		k := []rel.Value(all[rng.Intn(len(all))][:1:1])
		e := rel.EncodeValues(k...)
		if !seen[e] {
			seen[e] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// checkObserved verifies the observability layer against one committed
// step: the registry's row counters must have moved by exactly the amounts
// the MaintStats report, the step must have recorded exactly one maintain
// root and one commit root, and the span tree must validate (all spans
// ended, children nested inside their parents).
func checkObserved(tr *obs.Tracer, reg *obs.Registry, before map[string]int64, stats *view.MaintStats) error {
	after := reg.Snapshot()
	delta := func(name string) int64 { return after[name] - before[name] }
	checks := []struct {
		metric string
		want   int64
	}{
		{"view.commits", 1},
		{"view.undo.records", int64(stats.UndoRecords)},
		{"view.rows.primary", int64(stats.PrimaryRows)},
		{"view.rows.secondary", int64(stats.SecondaryRows)},
	}
	for _, c := range checks {
		if got := delta(c.metric); got != c.want {
			return fmt.Errorf("metric %s moved by %d, stats say %d", c.metric, got, c.want)
		}
	}
	var maintains, commits int
	for _, r := range tr.Roots() {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("trace validation: %w", err)
		}
		switch r.Name() {
		case "view.maintain":
			maintains++
		case "changeset.commit":
			commits++
		}
	}
	if maintains != 1 || commits != 1 {
		return fmt.Errorf("recorded %d maintain / %d commit roots, want 1/1", maintains, commits)
	}
	return nil
}
