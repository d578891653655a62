package ojv

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ojv/internal/fixture"
)

// TestPartitionIsAPartition checks the claim the write path's one lock rests
// on: partition hands every delta table and every affected view to exactly
// one component, so the components of a flush never write the same
// container. Over random FK catalogs, random SPOJ views (some registered
// before a foreign key is declared, so the cached footprints must follow
// AddForeignKey) and random delta subsets:
//
//   - every delta table is in exactly one component, and no component holds
//     anything else;
//   - every view whose footprint meets the delta is in exactly one
//     component, which holds the whole overlap;
//   - a view whose footprint misses the delta is in none;
//   - FK-adjacent delta tables share a component.
//
// Footprints are recomputed here from the view's tables and the foreign keys
// the test declared, not read from the view.
func TestPartitionIsAPartition(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 100
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(7100 + seed)))
		var tables []fixture.DrawnTable
		for i, name := range fixture.RandTables {
			tb := fixture.DrawnTable{Name: string(name)}
			if i > 0 && rng.Intn(3) > 0 {
				tb.Parent, tb.FK = string(fixture.RandTables[rng.Intn(i)]), rng.Intn(2) == 0
			}
			tables = append(tables, tb)
		}
		cat, err := fixture.RandFKCatalog(rng, tables, 4)
		if err != nil {
			t.Fatal(err)
		}
		db := WrapCatalog(cat)

		// parents maps each table to the tables it references through a
		// declared foreign key.
		parents := map[string][]string{}
		for _, tb := range tables {
			if tb.FK {
				parents[tb.Name] = append(parents[tb.Name], tb.Parent)
			}
		}
		viewTables := map[*View][]string{}
		nviews := rng.Intn(4)
		for i := 0; i < nviews; i++ {
			expr := fixture.RandSPOJ(rng)
			v, err := db.CreateView(fmt.Sprintf("v%d", i), ExprRel(expr), fixture.RandOutput(cat, expr))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			viewTables[v] = expr.Tables()
		}
		// Declare some of the intended foreign keys only now, after the
		// views that may read them.
		for _, tb := range tables {
			if tb.Parent != "" && !tb.FK && rng.Intn(2) == 0 {
				if err := db.AddForeignKey(tb.Name, []string{tb.Name + "f"}, tb.Parent, []string{tb.Parent + "k"}); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				parents[tb.Name] = append(parents[tb.Name], tb.Parent)
			}
		}

		for draw := 0; draw < 4; draw++ {
			var delta []string
			for _, name := range fixture.RandTables {
				if rng.Intn(2) == 0 {
					delta = append(delta, string(name))
				}
			}
			if err := checkPartition(db.partition(delta), delta, viewTables, parents); err != nil {
				t.Fatalf("seed %d, delta %v: %v", seed, delta, err)
			}
		}
	}
}

// checkPartition checks comps, the partition of the sorted delta tables,
// against the views' tables and the declared foreign keys.
func checkPartition(comps []flushComponent, delta []string, viewTables map[*View][]string, parents map[string][]string) error {
	compOf := map[string]int{}
	for i, c := range comps {
		if len(c.tables) == 0 {
			return fmt.Errorf("component %d has no tables", i)
		}
		for _, tb := range c.tables {
			if !slices.Contains(delta, tb) {
				return fmt.Errorf("component %d holds %s, which has no delta", i, tb)
			}
			if j, ok := compOf[tb]; ok {
				return fmt.Errorf("%s is in components %d and %d", tb, j, i)
			}
			compOf[tb] = i
		}
	}
	for _, tb := range delta {
		if _, ok := compOf[tb]; !ok {
			return fmt.Errorf("delta table %s is in no component", tb)
		}
	}

	for v, vt := range viewTables {
		var overlap []string
		for _, tb := range delta {
			if slices.Contains(vt, tb) || slices.ContainsFunc(vt, func(base string) bool { return slices.Contains(parents[base], tb) }) {
				overlap = append(overlap, tb)
			}
		}
		home := -1
		for i, c := range comps {
			for _, f := range c.families {
				if v.fam != f {
					continue
				}
				if home >= 0 {
					return fmt.Errorf("view %s is in components %d and %d", v.name, home, i)
				}
				home = i
			}
		}
		switch {
		case len(overlap) == 0 && home >= 0:
			return fmt.Errorf("view %s misses the delta but is in component %d", v.name, home)
		case len(overlap) > 0 && home < 0:
			return fmt.Errorf("view %s overlaps the delta on %v but is in no component", v.name, overlap)
		}
		for _, tb := range overlap {
			if compOf[tb] != home {
				return fmt.Errorf("view %s is in component %d, but its overlap table %s is in component %d", v.name, home, tb, compOf[tb])
			}
		}
	}

	for child, ps := range parents {
		for _, p := range ps {
			ci, okc := compOf[child]
			pi, okp := compOf[p]
			if okc && okp && ci != pi {
				return fmt.Errorf("FK-adjacent %s and %s are in components %d and %d", child, p, ci, pi)
			}
		}
	}
	return nil
}
