package oracle

import (
	"fmt"
	"math/rand"

	"ojv"
	"ojv/internal/fixture"
	"ojv/internal/rel"
	"ojv/internal/view"
)

// The shared-plan oracle pins multi-view maintenance to ground truth: many
// random views over few base tables force overlapping ΔV^D trees, so every
// flush exercises the shared-subexpression DAG and the tee fan-out. At
// every flush boundary every view must equal its recomputation from the
// base tables (View.Check: two independent oracles), and the
// producer/consumer row identity must hold. Views 0 and 1 are forced to
// the same shape, so at least one shared subtree exists regardless of what
// the generator draws for the rest.

// sharedPool is the base-table pool: three tables, so many views over it
// overlap heavily (the many-views-over-few-tables setting).
const sharedPool = "ABC"

// RunSharedSeed executes one deterministic run twice: on the catalog that
// declares an index on every join attribute, and on its index-less sibling,
// where every index the views probe is an arrangement their registration
// derived and several views hold — so shared arrangements are checked
// against recomputation under the shared DAG.
func RunSharedSeed(seed int64, strategy view.Strategy, nViews, rounds, rows int) error {
	for _, c := range []struct {
		design string
		build  func(*rand.Rand, int) (*rel.Catalog, error)
	}{
		{"declared indexes", fixture.RandCatalog},
		{"arrangements only", fixture.RandCatalogNoIndex},
	} {
		cat, err := c.build(rand.New(rand.NewSource(seed)), rows)
		if err != nil {
			return err
		}
		if err := runShared(cat, seed, strategy, nViews, rounds, rows); err != nil {
			return fmt.Errorf("%s: %w", c.design, err)
		}
	}
	return nil
}

// runShared is one run over one catalog: nViews random views over the
// three-table pool, rounds rounds of mixed statements, flushed and checked
// per round (flushing each round keeps pickKeys sampling the committed
// state).
func runShared(cat *rel.Catalog, seed int64, strategy view.Strategy, nViews, rounds, rows int) error {
	if nViews < 2 {
		nViews = 2
	}
	// Each view's shape comes from its own sub-seed. Views 0 and 1 reuse
	// one sub-seed: guaranteed duplicate shapes, hence guaranteed sharing.
	shapeSeed := func(i int) int64 {
		if i == 1 {
			i = 0
		}
		return seed ^ (int64(i+1) << 32)
	}
	db := ojv.WrapCatalog(cat)
	views := make([]*ojv.View, nViews)
	for i := range views {
		var err error
		expr := fixture.RandSPOJFrom(rand.New(rand.NewSource(shapeSeed(i))), sharedPool)
		views[i], err = db.CreateView(fmt.Sprintf("sv%d", i), ojv.ExprRel(expr),
			fixture.RandOutput(cat, expr),
			ojv.Options{Strategy: strategy, Parallelism: 1})
		if err != nil {
			return err
		}
	}

	metrics := ojv.NewMetrics()
	wb := db.NewWriteBatch(ojv.BatchOptions{Metrics: metrics})

	check := func(when string) error {
		for i, v := range views {
			if err := v.Check(); err != nil {
				return fmt.Errorf("%s: view sv%d diverges from recomputation: %w", when, i, err)
			}
		}
		snap := metrics.Snapshot()
		produced := snap["view.shared.rows.producer"]
		consumed := snap["view.shared.rows.consumer"]
		saved := snap["view.shared.rows.saved"]
		if consumed != produced+saved {
			return fmt.Errorf("%s: row identity broken: Σ consumer %d != producer %d + saved %d",
				when, consumed, produced, saved)
		}
		return nil
	}

	script := rand.New(rand.NewSource(seed ^ 0x5ea1edda9))
	nextKey := int64(rows) + 1000
	for round := 0; round < rounds; round++ {
		for _, c := range sharedPool {
			table := string(c)
			switch script.Intn(3) {
			case 0: // insert fresh-keyed rows
				var batch []rel.Row
				for i := 0; i < 1+script.Intn(3); i++ {
					batch = append(batch, fixture.RandRow(script, nextKey))
					nextKey++
				}
				if err := wb.Insert(table, batch); err != nil {
					return fmt.Errorf("round %d: insert: %w", round, err)
				}
			case 1: // delete committed keys (the prior round flushed, so no stale overlay)
				keys := pickKeys(db.TableSnapshot(table).Rows(), script, 1+script.Intn(3))
				if len(keys) == 0 {
					continue
				}
				if _, err := wb.Delete(table, keys); err != nil {
					return fmt.Errorf("round %d: delete: %w", round, err)
				}
			default: // keyed update of a committed row
				keys := pickKeys(db.TableSnapshot(table).Rows(), script, 1)
				if len(keys) == 0 {
					continue
				}
				j := rel.Value(rel.Int(script.Int63n(7)))
				if script.Intn(6) == 0 {
					j = rel.Null
				}
				newRow := rel.Row{keys[0][0], j, rel.Int(script.Int63n(100))}
				if err := wb.Update(table, keys[0], newRow); err != nil {
					return fmt.Errorf("round %d: update: %w", round, err)
				}
			}
		}
		if err := wb.Flush(); err != nil {
			return fmt.Errorf("round %d: flush: %w", round, err)
		}
		if err := check(fmt.Sprintf("round %d", round)); err != nil {
			return err
		}
	}
	if err := wb.Close(); err != nil {
		return err
	}
	if metrics.Snapshot()["view.shared.subtrees"] == 0 {
		return fmt.Errorf("no shared subtrees across %d views with forced duplicate shapes", nViews)
	}
	return check("final")
}
