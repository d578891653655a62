package view

import (
	"fmt"
	"math/rand"
	"testing"

	"ojv/internal/fixture"
	"ojv/internal/rel"
)

// newV1Maintainer builds, registers and materializes V1 over a fresh RSTU
// database.
func newV1Maintainer(t testing.TB, withFK bool, opts Options) (*rel.Catalog, *Maintainer) {
	t.Helper()
	cat := mustRSTU(t, withFK)
	def, err := Define(cat, "v1", fixture.V1Expr(withFK), fixture.V1Output(cat))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(def, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	if err := Check(m); err != nil {
		t.Fatalf("initial materialization: %v", err)
	}
	return cat, m
}

// insertRowsFor fabricates valid new rows for a table of the RSTU schema.
func insertRowsFor(cat *rel.Catalog, table string, n int, seed int64, withFK bool) []rel.Row {
	rng := rand.New(rand.NewSource(seed))
	dom := int64(17)
	var out []rel.Row
	for i := 0; i < n; i++ {
		k := rel.Int(int64(10000 + 100*int(seed) + i))
		v := func() rel.Value { return rel.Int(rng.Int63n(dom)) }
		switch table {
		case "R":
			out = append(out, rel.Row{k, v(), v()})
		case "S":
			out = append(out, rel.Row{k, v()})
		case "T":
			out = append(out, rel.Row{k, v(), v()})
		case "U":
			row := rel.Row{k, v()}
			if withFK {
				row = append(row, rel.Int(2*rng.Int63n(10))) // existing even T key
			}
			out = append(out, row)
		}
	}
	return out
}

// deletableKeys picks existing keys that are safe to delete (no inbound FK
// references, determined by scanning the referencing tables).
func deletableKeys(t *testing.T, cat *rel.Catalog, table string, n int, withFK bool) [][]rel.Value {
	t.Helper()
	_ = withFK
	referenced := make(map[string]bool)
	for _, ref := range cat.ReferencingKeys(table) {
		ft := cat.Table(ref.Table)
		var cols []int
		for _, c := range ref.FK.Cols {
			cols = append(cols, ft.Schema().MustIndexOf(ref.Table, c))
		}
		for _, row := range ft.Rows() {
			referenced[rel.EncodeRowCols(row, cols)] = true
		}
	}
	rows := cat.Table(table).Rows()
	rel.SortRows(rows) // Rows() has map order; keep key choice deterministic
	var keys [][]rel.Value
	for _, row := range rows {
		kv := row.Project(cat.Table(table).KeyCols())
		if referenced[rel.EncodeValues(kv...)] {
			continue
		}
		keys = append(keys, kv)
		if len(keys) == n {
			break
		}
	}
	if len(keys) < n {
		t.Fatalf("not enough deletable rows in %s", table)
	}
	return keys
}

func runInsert(t *testing.T, cat *rel.Catalog, m *Maintainer, table string, rows []rel.Row) *MaintStats {
	t.Helper()
	if err := cat.Insert(table, rows); err != nil {
		t.Fatal(err)
	}
	stats, err := m.OnInsert(table, rows)
	if err != nil {
		t.Fatalf("OnInsert(%s): %v", table, err)
	}
	return stats
}

func runDelete(t *testing.T, cat *rel.Catalog, m *Maintainer, table string, keys [][]rel.Value) *MaintStats {
	t.Helper()
	deleted, err := cat.Delete(table, keys)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.OnDelete(table, deleted)
	if err != nil {
		t.Fatalf("OnDelete(%s): %v", table, err)
	}
	return stats
}

// optionMatrix enumerates the planner configurations exercised by the
// round-trip tests: every ablation knob and both secondary-delta sources.
func optionMatrix() map[string]Options {
	return map[string]Options{
		"default":        {},
		"from-base":      {Strategy: StrategyFromBase},
		"bushy":          {DisableLeftDeep: true},
		"no-fk-simplify": {DisableFKSimplify: true},
		"no-fk-graph":    {DisableFKGraph: true},
		"no-orphan-ix":   {DisableOrphanIndex: true},
		"all-off":        {DisableLeftDeep: true, DisableFKSimplify: true, DisableFKGraph: true, DisableOrphanIndex: true, Strategy: StrategyFromBase},
	}
}

// TestV1MaintenanceRoundTrip inserts into and deletes from every base table
// of V1 under every planner configuration and checks the view against both
// recompute oracles after each step.
func TestV1MaintenanceRoundTrip(t *testing.T) {
	for name, opts := range optionMatrix() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			cat, m := newV1Maintainer(t, false, opts)
			seed := int64(1)
			for _, table := range []string{"R", "S", "T", "U"} {
				rows := insertRowsFor(cat, table, 7, seed, false)
				seed++
				stats := runInsert(t, cat, m, table, rows)
				if err := Check(m); err != nil {
					t.Fatalf("after insert %s: %v (stats %+v)", table, err, stats)
				}
			}
			for _, table := range []string{"R", "S", "T", "U"} {
				keys := deletableKeys(t, cat, table, 6, false)
				stats := runDelete(t, cat, m, table, keys)
				if err := Check(m); err != nil {
					t.Fatalf("after delete %s: %v (stats %+v)", table, err, stats)
				}
			}
		})
	}
}

// TestV1FKMaintenanceRoundTrip exercises the Example 10 configuration
// (foreign key U.tfk→T.tk): inserting into T must touch only the direct
// terms pruned per Theorem 3, and the FK-simplified primary delta must
// still be exact.
func TestV1FKMaintenanceRoundTrip(t *testing.T) {
	for name, opts := range optionMatrix() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			cat, m := newV1Maintainer(t, true, opts)
			seed := int64(50)
			for _, table := range []string{"R", "S", "T", "U"} {
				rows := insertRowsFor(cat, table, 7, seed, true)
				seed++
				runInsert(t, cat, m, table, rows)
				if err := Check(m); err != nil {
					t.Fatalf("after insert %s: %v", table, err)
				}
			}
			for _, table := range []string{"U", "T", "R", "S"} { // U before T (RESTRICT)
				keys := deletableKeys(t, cat, table, 5, true)
				runDelete(t, cat, m, table, keys)
				if err := Check(m); err != nil {
					t.Fatalf("after delete %s: %v", table, err)
				}
			}
		})
	}
}

// TestV2MaintenanceRoundTrip exercises V2 (selections under full outer
// joins) with and without the L→O foreign key.
func TestV2MaintenanceRoundTrip(t *testing.T) {
	for _, withFK := range []bool{false, true} {
		for name, opts := range optionMatrix() {
			opts := opts
			t.Run(fmt.Sprintf("fk=%v/%s", withFK, name), func(t *testing.T) {
				cat, err := fixture.COL(fixture.COLOptions{Seed: 3, WithFK: withFK})
				if err != nil {
					t.Fatal(err)
				}
				def, err := Define(cat, "v2", fixture.V2Expr(), fixture.V2Output(cat))
				if err != nil {
					t.Fatal(err)
				}
				m, err := NewMaintainer(def, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Materialize(); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(9))
				// Inserts: new customers, orders, lineitems.
				var cRows, oRows, lRows []rel.Row
				for i := 0; i < 8; i++ {
					cRows = append(cRows, rel.Row{rel.Int(int64(1000 + i)), rel.Int(rng.Int63n(10))})
					oRows = append(oRows, rel.Row{rel.Int(int64(1000 + i)), rel.Int(rng.Int63n(60)), rel.Int(rng.Int63n(10))})
					lRows = append(lRows, rel.Row{rel.Int(int64(1000 + i)), rel.Int(rng.Int63n(60))})
				}
				for _, step := range []struct {
					table string
					rows  []rel.Row
				}{{"C", cRows}, {"O", oRows}, {"L", lRows}} {
					runInsert(t, cat, m, step.table, step.rows)
					if err := Check(m); err != nil {
						t.Fatalf("after insert %s: %v", step.table, err)
					}
				}
				// Deletes: lineitems first (RESTRICT), then orders, customers.
				for _, table := range []string{"L", "O", "C"} {
					keys := deletableKeys(t, cat, table, 5, false)
					runDelete(t, cat, m, table, keys)
					if err := Check(m); err != nil {
						t.Fatalf("after delete %s: %v", table, err)
					}
				}
			})
		}
	}
}

// TestMaintenanceStats checks the stats plumbing on a T insert into V1:
// four direct and two indirect terms (Figure 1(b)).
func TestMaintenanceStats(t *testing.T) {
	cat, m := newV1Maintainer(t, false, Options{})
	rows := insertRowsFor(cat, "T", 5, 77, false)
	stats := runInsert(t, cat, m, "T", rows)
	if stats.DirectTerms != 4 || stats.IndirectTerms != 2 {
		t.Errorf("direct=%d indirect=%d, want 4/2", stats.DirectTerms, stats.IndirectTerms)
	}
	if stats.PrimaryRows == 0 {
		t.Error("primary delta should be non-empty for a T insert")
	}
	if stats.Table != "T" {
		t.Errorf("stats header: %+v", stats)
	}
}

// TestOnModifyDisablesFKOptimizations verifies the Section 6 exclusion: an
// update decomposed into delete+insert must not use the FK shortcuts, and
// the result must still be exact.
func TestOnModifyDisablesFKOptimizations(t *testing.T) {
	cat, m := newV1Maintainer(t, true, Options{})
	// Modify an existing T row in place: same key, new attribute values.
	old, ok := cat.Table("T").Get(rel.Int(3))
	if !ok {
		t.Fatal("row T(3) missing")
	}
	newRow := rel.Row{rel.Int(3), rel.Int(1), rel.Int(2)}
	if _, err := cat.Delete("T", [][]rel.Value{{rel.Int(3)}}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Insert("T", []rel.Row{newRow}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OnModify("T", []rel.Row{old}, []rel.Row{newRow}); err != nil {
		t.Fatal(err)
	}
	if err := Check(m); err != nil {
		t.Fatalf("after modify: %v", err)
	}
}

// TestEmptyDeltaIsNoOp checks that maintenance with an empty delta leaves
// the view untouched, and that updates to unreferenced tables are ignored.
func TestEmptyDeltaIsNoOp(t *testing.T) {
	cat, m := newV1Maintainer(t, false, Options{})
	before := m.Materialized().Len()
	stats, err := m.OnInsert("T", nil)
	if err != nil || stats.PrimaryRows != 0 {
		t.Fatalf("empty delta: %v %+v", err, stats)
	}
	if m.Materialized().Len() != before {
		t.Error("empty delta changed the view")
	}
	if _, err := cat.CreateTable("other", []rel.Column{{Name: "k", Kind: rel.KindInt}}, "k"); err != nil {
		t.Fatal(err)
	}
	if err := cat.Insert("other", []rel.Row{{rel.Int(1)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OnInsert("other", []rel.Row{{rel.Int(1)}}); err != nil {
		t.Fatal(err)
	}
	if m.Materialized().Len() != before {
		t.Error("unreferenced table update changed the view")
	}
}

// TestFKInsertIntoReferencedTableIsTermLocal reproduces the introduction's
// observation: with the Example 10 FK in place, inserting into T only adds
// null-extended rows for the pruned maintenance graph — no orphan cleanup
// runs (zero indirect terms for references through the FK join).
func TestFKInsertIntoReferencedTableIsTermLocal(t *testing.T) {
	cat, m := newV1Maintainer(t, true, Options{})
	plan, err := m.Plan("U", true)
	if err != nil {
		t.Fatal(err)
	}
	// U has an FK to T joined on it: terms {T,U,...} containing both are
	// pruned for U-updates by Theorem 3? No — Theorem 3 prunes terms for
	// updates to the REFERENCED table T. For U the plan is ordinary.
	if len(plan.graph.DirectTerms()) == 0 {
		t.Error("U updates must have direct terms")
	}
	planT, err := m.Plan("T", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range planT.graph.DirectTerms() {
		if planT.nf.Terms[d].Has("U") {
			t.Errorf("term %s containing U should be pruned for T updates", planT.nf.Terms[d].SourceKey())
		}
	}
	rows := insertRowsFor(cat, "T", 4, 123, true)
	runInsert(t, cat, m, "T", rows)
	if err := Check(m); err != nil {
		t.Fatal(err)
	}
}

// TestRandomizedMaintenance drives random mixed workloads over V1 and
// checks the view after every batch. This is the main property test for
// the maintenance algorithm.
func TestRandomizedMaintenance(t *testing.T) {
	if testing.Short() {
		t.Skip("long randomized test")
	}
	tables := []string{"R", "S", "T", "U"}
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			opts := Options{}
			if seed%2 == 1 {
				opts.Strategy = StrategyFromBase
			}
			cat, m := newV1Maintainer(t, false, opts)
			rng := rand.New(rand.NewSource(seed))
			nextKey := int64(20000)
			for step := 0; step < 25; step++ {
				table := tables[rng.Intn(len(tables))]
				if rng.Intn(2) == 0 {
					n := 1 + rng.Intn(5)
					var rows []rel.Row
					for i := 0; i < n; i++ {
						v := func() rel.Value { return rel.Int(rng.Int63n(17)) }
						switch table {
						case "R", "T":
							rows = append(rows, rel.Row{rel.Int(nextKey), v(), v()})
						default: // S and U have two columns
							rows = append(rows, rel.Row{rel.Int(nextKey), v()})
						}
						nextKey++
					}
					runInsert(t, cat, m, table, rows)
				} else {
					n := 1 + rng.Intn(4)
					if cat.Table(table).Len() < n {
						continue
					}
					keys := deletableKeys(t, cat, table, n, false)
					runDelete(t, cat, m, table, keys)
				}
				if err := Check(m); err != nil {
					t.Fatalf("seed %d step %d (%s): %v", seed, step, table, err)
				}
			}
		})
	}
}
