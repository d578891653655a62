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

// TestStatementSeesRegistryChange: a statement commits through its table's
// cached component (tableComponent), so every change to the view registry
// or to a footprint must reach the next statement on a table whose
// component is already cached. Between two statements on one table it
// (a) registers a view whose arrangements all exist already, which leaves
// the catalog's design generation where it was, (b) registers a view that
// joins an existing family, (c) drops one member of that family and (d)
// declares a foreign key that widens a view's footprint to the table. After
// each, the statement must maintain the views the change brought in, and
// only the live ones, and every registered view must equal recomputation.
func TestStatementSeesRegistryChange(t *testing.T) {
	db := NewDatabase()
	for _, tb := range []struct {
		name string
		cols []Column
	}{
		{"C", Cols(IntCol("ck"), IntCol("a"))},
		{"O", Cols(IntCol("ok"), NotNull(IntCol("ock")), IntCol("a"))},
		{"P", Cols(IntCol("pk"))},
		{"X", Cols(IntCol("xk"), NotNull(IntCol("xp")))},
	} {
		db.MustCreateTable(tb.name, tb.cols, tb.cols[0].Name)
	}
	if err := db.Insert("C", []Row{{Int(1), Int(3)}, {Int(2), Int(9)}}); err != nil {
		t.Fatal(err)
	}
	create := func(name string, r Rel, cols ...string) *View {
		t.Helper()
		v, err := db.CreateView(name, r, Columns(cols...))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	custOrders := func(min int64) Rel {
		return Table("C").Where(Cmp("C", "a", OpGt, Int(min))).
			LeftJoin(Table("O"), Eq("C", "ck", "O", "ock"))
	}
	coCols := []string{"C.ck", "C.a", "O.ok", "O.ock", "O.a"}
	v1 := create("v1", custOrders(0), coCols...)
	vx := create("vx", Table("X"), "X.xk", "X.xp")

	next := int64(0)
	// statement inserts one fresh row into table and checks every
	// registered view against recomputation.
	statement := func(when, table string) {
		t.Helper()
		next++
		var row Row
		switch table {
		case "O":
			row = Row{Int(next), Int(1 + next%2), Int(next)}
		case "P":
			row = Row{Int(next)}
		}
		if err := db.Insert(table, []Row{row}); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for _, name := range db.order {
			if err := db.views[name].Check(); err != nil {
				t.Fatalf("%s: view %s: %v", when, name, err)
			}
		}
	}
	// maintained requires that the last statement handed v a new LastStats.
	maintained := func(when string, v *View, before *MaintStats) {
		t.Helper()
		if v.LastStats == nil || v.LastStats == before {
			t.Fatalf("%s: the statement did not maintain view %s", when, v.Name())
		}
	}

	statement("first statement", "O")

	// (a) v2 probes what v1 probes: O(ock), arranged for v1, and C's key.
	gen := db.cat.DesignGeneration()
	v2 := create("v2", Table("O").Join(Table("C"), Eq("C", "ck", "O", "ock")), coCols...)
	if v2.Maintainer() == v1.Maintainer() {
		t.Fatal("v2 joined v1's family; it must found its own")
	}
	if got := db.cat.DesignGeneration(); got != gen {
		t.Fatalf("registering v2 moved the design generation %d → %d: it should reuse v1's arrangements", gen, got)
	}
	statement("after a view over existing arrangements", "O")
	maintained("after a view over existing arrangements", v2, nil)

	// (b) v3 differs from v1 in its selection on C alone.
	v3 := create("v3", custOrders(5), coCols...)
	if v3.Maintainer() != v1.Maintainer() {
		t.Fatal("v3 did not join v1's family")
	}
	statement("after a view joined a family", "O")
	maintained("after a view joined a family", v3, nil)

	// (c) the family loses its founder.
	dropped, kept := v1.LastStats, v3.LastStats
	if !db.DropView("v1") {
		t.Fatal("DropView(v1) found no view")
	}
	statement("after a family member was dropped", "O")
	maintained("after a family member was dropped", v3, kept)
	if v1.LastStats != dropped {
		t.Fatal("after a family member was dropped: the statement still maintained it")
	}

	// (d) vx reads X alone until X references P.
	statement("before the foreign key", "P")
	if vx.LastStats != nil {
		t.Fatal("a statement on P maintained vx before X referenced P")
	}
	if err := db.AddForeignKey("X", []string{"xp"}, "P", []string{"pk"}); err != nil {
		t.Fatal(err)
	}
	statement("after a foreign key widened a footprint", "P")
	maintained("after a foreign key widened a footprint", vx, nil)
}
