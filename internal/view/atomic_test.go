package view

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ojv/internal/fixture"
	"ojv/internal/rel"
)

// faultInjector fails the n-th consultation of the fault hook; its zero
// value never fires. Disabling it turns every consultation into a no-op,
// which is how the harness retries a rolled-back run.
type faultInjector struct {
	failAt   int // 1-based hook consultation to fail at; 0 = never
	calls    int
	site     string // label of the site that fired, "" if none
	disabled bool
}

func (f *faultInjector) hook(site string) error {
	if f.disabled {
		return nil
	}
	f.calls++
	if f.calls == f.failAt {
		f.site = site
		return fmt.Errorf("injected fault at %s", site)
	}
	return nil
}

// fingerprint captures everything a rollback must restore: the stored rows
// (groups for aggregation views), the per-term pattern counters and the
// membership of every per-table chain (not the order within a chain, and
// not handle numbers).
func fingerprint(m *Maintainer) string {
	var b strings.Builder
	if a := m.Aggregated(); a != nil {
		for _, r := range a.Rows() {
			b.WriteString(rel.EncodeValues(r...))
			b.WriteByte('\n')
		}
		return b.String()
	}
	mv := m.Materialized()
	for _, r := range mv.SortedRows() {
		b.WriteString(rel.EncodeValues(r...))
		b.WriteByte('\n')
	}
	b.WriteString("patterns:")
	for p := uint32(0); p < 1<<uint(len(mv.tableOrder)); p++ {
		if n := mv.patternCount[p]; n != 0 {
			fmt.Fprintf(&b, " %d=%d", p, n)
		}
	}
	b.WriteByte('\n')
	if mv.perTable != nil {
		for i, t := range mv.tableOrder {
			fmt.Fprintf(&b, "index %s: %s\n", t, indexShape(mv, i))
		}
	}
	return b.String()
}

// newAggMaintainerOpts is newAggMaintainer with explicit maintenance
// options (the fault scenarios need a FailPoint).
func newAggMaintainerOpts(t testing.TB, withFK bool, opts Options) (*rel.Catalog, *Maintainer) {
	t.Helper()
	cat, err := fixture.COL(fixture.COLOptions{Seed: 11, WithFK: withFK})
	if err != nil {
		t.Fatal(err)
	}
	def, err := DefineAggregate(cat, "v2agg", fixture.V2Expr(), v2AggSpec())
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
		t.Fatalf("initial aggregate materialization: %v", err)
	}
	return cat, m
}

// faultScenario is one maintenance run to be killed at every mutation site
// in turn. build constructs a fresh fixture with the base-table update
// already applied (maintenance runs after the base tables change) and
// returns the maintainer plus the maintenance operation, which the harness
// runs twice: once with the fault armed, once disarmed.
type faultScenario struct {
	name string
	// wantSites are fault sites the scenario must pass through at least
	// once across all fail indexes.
	wantSites []string
	build     func(t *testing.T, opts Options) (*Maintainer, func() (*MaintStats, error))
}

func faultScenarios() []faultScenario {
	insertIntoV1 := func(strategy Strategy) func(t *testing.T, opts Options) (*Maintainer, func() (*MaintStats, error)) {
		return func(t *testing.T, opts Options) (*Maintainer, func() (*MaintStats, error)) {
			opts.Strategy = strategy
			cat, m := newV1Maintainer(t, false, opts)
			rows := insertRowsFor(cat, "T", 8, 5, false)
			if err := cat.Insert("T", rows); err != nil {
				t.Fatal(err)
			}
			return m, func() (*MaintStats, error) { return m.OnInsert("T", rows) }
		}
	}
	v1Delete := func(strategy Strategy) func(t *testing.T, opts Options) (*Maintainer, func() (*MaintStats, error)) {
		return func(t *testing.T, opts Options) (*Maintainer, func() (*MaintStats, error)) {
			opts.Strategy = strategy
			cat, m := newV1Maintainer(t, false, opts)
			keys := deletableKeys(t, cat, "T", 8, false)
			deleted, err := cat.Delete("T", keys)
			if err != nil {
				t.Fatal(err)
			}
			return m, func() (*MaintStats, error) { return m.OnDelete("T", deleted) }
		}
	}
	return []faultScenario{
		{
			name:      "v1-insert-T",
			wantSites: []string{"primary-insert", "secondary-orphan-delete"},
			build:     insertIntoV1(StrategyAuto),
		},
		{
			name:      "v1-delete-T",
			wantSites: []string{"primary-delete", "secondary-orphan-insert"},
			build:     v1Delete(StrategyAuto),
		},
		{
			name:      "v1-frombase-insert-T",
			wantSites: []string{"primary-insert", "frombase-orphan-delete"},
			build:     insertIntoV1(StrategyFromBase),
		},
		{
			name:      "v1-frombase-delete-T",
			wantSites: []string{"primary-delete", "frombase-orphan-insert"},
			build:     v1Delete(StrategyFromBase),
		},
		{
			name:      "v1-modify-T",
			wantSites: []string{"primary-delete", "primary-insert"},
			build: func(t *testing.T, opts Options) (*Maintainer, func() (*MaintStats, error)) {
				cat, m := newV1Maintainer(t, false, opts)
				// Rewire several T rows' join columns: the removed half tears
				// out their join rows (creating orphans), and the added
				// half re-joins them to different R partners (c stays inside
				// the generator domain so the new rows are not dropped by
				// V1's row-preserving left side). Rows() has map order, so
				// sort to keep every fail-index iteration on the same update.
				tRows := cat.Table("T").Rows()
				rel.SortRows(tRows)
				var olds, news []rel.Row
				for i, row := range tRows {
					if i >= 4 {
						break
					}
					old := append(rel.Row(nil), row...)
					nw := append(rel.Row(nil), row...)
					nw[1] = rel.Int((old[1].AsInt() + 1) % 17) // rotate c within the domain
					nw[2] = rel.Int(int64(200 + i))            // d outside it: U side detaches
					if _, err := cat.Update("T", old.Project(cat.Table("T").KeyCols()), nw); err != nil {
						t.Fatal(err)
					}
					olds, news = append(olds, old), append(news, nw)
				}
				return m, func() (*MaintStats, error) { return m.OnModify("T", olds, news) }
			},
		},
		{
			name:      "agg-insert-O",
			wantSites: []string{"agg-primary-fold", "agg-secondary-fold"},
			build: func(t *testing.T, opts Options) (*Maintainer, func() (*MaintStats, error)) {
				cat, m := newAggMaintainerOpts(t, false, opts)
				var rows []rel.Row
				for i := 0; i < 8; i++ {
					rows = append(rows, rel.Row{rel.Int(int64(5000 + i)), rel.Int(int64(i % 30)), rel.Int(int64(1 + i%9))})
				}
				if err := cat.Insert("O", rows); err != nil {
					t.Fatal(err)
				}
				return m, func() (*MaintStats, error) { return m.OnInsert("O", rows) }
			},
		},
		{
			name:      "agg-delete-O",
			wantSites: []string{"agg-primary-fold", "agg-secondary-fold"},
			build: func(t *testing.T, opts Options) (*Maintainer, func() (*MaintStats, error)) {
				cat, m := newAggMaintainerOpts(t, false, opts)
				var keys [][]rel.Value
				for i := 0; i < 8; i++ {
					keys = append(keys, []rel.Value{rel.Int(int64(i))})
				}
				deleted, err := cat.Delete("O", keys)
				if err != nil {
					t.Fatal(err)
				}
				return m, func() (*MaintStats, error) { return m.OnDelete("O", deleted) }
			},
		},
	}
}

// TestFaultInjectionRollback kills every maintenance scenario at each
// mutation site in turn and checks the atomicity contract both ways: after
// the injected fault the view is bit-identical to its pre-run state, and a
// retry with the fault disarmed succeeds and matches full recomputation.
func TestFaultInjectionRollback(t *testing.T) {
	for _, sc := range faultScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			seen := make(map[string]bool)
			faults := 0
			for failAt := 1; ; failAt++ {
				if failAt > 2000 {
					t.Fatal("fault matrix did not terminate")
				}
				inj := &faultInjector{failAt: failAt}
				m, op := sc.build(t, Options{FailPoint: inj.hook})
				pre := fingerprint(m)
				stats, err := op()
				if inj.site == "" {
					// The run completed without reaching failAt hook
					// consultations: the matrix is exhausted. This final run
					// had an (unfired) injector and must have succeeded.
					if err != nil {
						t.Fatalf("failAt=%d: unfaulted run failed: %v", failAt, err)
					}
					if !stats.Committed {
						t.Fatalf("failAt=%d: successful run not marked committed", failAt)
					}
					if stats.UndoRecords == 0 {
						t.Fatalf("failAt=%d: successful run logged no undo records", failAt)
					}
					if err := Check(m); err != nil {
						t.Fatalf("failAt=%d: view diverges from recomputation: %v", failAt, err)
					}
					break
				}
				faults++
				seen[inj.site] = true
				if err == nil {
					t.Fatalf("failAt=%d: fault at %s did not surface as an error", failAt, inj.site)
				}
				if stats != nil {
					t.Fatalf("failAt=%d: failed run returned stats", failAt)
				}
				if got := fingerprint(m); got != pre {
					t.Fatalf("failAt=%d: view changed after rollback at %s:\n--- before ---\n%s\n--- after ---\n%s",
						failAt, inj.site, pre, got)
				}
				// Retry with the fault disarmed: maintenance must now succeed
				// and land exactly on the recomputed view.
				inj.disabled = true
				stats, err = op()
				if err != nil {
					t.Fatalf("failAt=%d: retry after rollback at %s failed: %v", failAt, inj.site, err)
				}
				if !stats.Committed {
					t.Fatalf("failAt=%d: retry not marked committed", failAt)
				}
				if err := Check(m); err != nil {
					t.Fatalf("failAt=%d: retried view diverges from recomputation: %v", failAt, err)
				}
			}
			if faults == 0 {
				t.Fatal("no faults fired; scenario exercises no mutation sites")
			}
			for _, site := range sc.wantSites {
				if !seen[site] {
					t.Errorf("fault site %s never reached (seen: %v)", site, seen)
				}
			}
			t.Logf("%d faulted runs, sites %v", faults, seen)
		})
	}
}

// TestOnModifyMergesAllStats pins the statistics of a modify's one signed
// run against the same update run as a separate delete and insert on a
// twin fixture: the report reads as an insert on T, row counts (including
// the per-term secondary breakdown) must sum across the two halves and the
// term counts must survive.
func TestOnModifyMergesAllStats(t *testing.T) {
	build := func() (*rel.Catalog, *Maintainer, []rel.Row, []rel.Row) {
		cat, m := newV1Maintainer(t, false, Options{})
		// Rewire every T row so the removed half is guaranteed to orphan the
		// R-S and U sides (no T row survives to absorb them).
		tRows := cat.Table("T").Rows()
		rel.SortRows(tRows)
		var olds, news []rel.Row
		for i, row := range tRows {
			old := append(rel.Row(nil), row...)
			nw := append(rel.Row(nil), row...)
			nw[1] = rel.Int(int64(300 + i))
			nw[2] = rel.Int(int64(400 + i))
			olds, news = append(olds, old), append(news, nw)
		}
		return cat, m, olds, news
	}

	catA, mA, olds, news := build()
	keys := make([][]rel.Value, len(olds))
	for i, old := range olds {
		keys[i] = old.Project(catA.Table("T").KeyCols())
		if _, err := catA.Update("T", keys[i], news[i]); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := mA.OnModify("T", olds, news)
	if err != nil {
		t.Fatal(err)
	}

	// Twin fixture: same update as delete-all then insert-all. OnModify
	// disables the FK optimizations, but with WithFK=false the plans agree.
	catB, mB, _, _ := build()
	if _, err := catB.Delete("T", keys); err != nil {
		t.Fatal(err)
	}
	del, err := mB.OnDelete("T", olds)
	if err != nil {
		t.Fatal(err)
	}
	if err := catB.Insert("T", news); err != nil {
		t.Fatal(err)
	}
	ins, err := mB.OnInsert("T", news)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(mB); err != nil {
		t.Fatal(err)
	}

	if del.SecondaryRows == 0 {
		t.Fatal("update produces no delete-pass secondary rows; the merge has nothing to preserve")
	}
	// A modify sums both halves' rows.
	if merged.Table != "T" || !merged.Committed {
		t.Errorf("merged Table=%q Committed=%v, want T, true", merged.Table, merged.Committed)
	}
	if got, want := merged.PrimaryRows, del.PrimaryRows+ins.PrimaryRows; got != want {
		t.Errorf("merged PrimaryRows = %d, want %d", got, want)
	}
	if got, want := merged.SecondaryRows, del.SecondaryRows+ins.SecondaryRows; got != want {
		t.Errorf("merged SecondaryRows = %d, want %d", got, want)
	}
	if got, want := merged.DirectTerms, max(del.DirectTerms, ins.DirectTerms); got != want {
		t.Errorf("merged DirectTerms = %d, want %d", got, want)
	}
	if got, want := merged.IndirectTerms, max(del.IndirectTerms, ins.IndirectTerms); got != want {
		t.Errorf("merged IndirectTerms = %d, want %d", got, want)
	}
	wantByTerm := make(map[string]int)
	for _, s := range []*MaintStats{del, ins} {
		for _, tr := range s.Terms {
			wantByTerm[tr.Term] += tr.Rows
		}
	}
	for k, want := range wantByTerm {
		if got := merged.SecondaryByTerm(k); got != want {
			t.Errorf("merged SecondaryByTerm(%s) = %d, want %d", k, got, want)
		}
	}
	sum := 0
	for _, tr := range merged.Terms {
		if _, ok := wantByTerm[tr.Term]; !ok || tr.Rows == 0 {
			t.Errorf("merged Terms has unexpected entry %s: %d", tr.Term, tr.Rows)
		}
		sum += tr.Rows
	}
	if len(merged.Terms) != len(wantByTerm) || sum != merged.SecondaryRows {
		t.Errorf("merged Terms %v do not split SecondaryRows %d over the %d terms the halves counted", merged.Terms, merged.SecondaryRows, len(wantByTerm))
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestContainsTupleIndexAgreement probes containsTuple on twin views — one
// with the orphan index, one forced onto the scan fallback — and requires
// identical answers for present tuples, absent tuples, and mixed multi-table
// probes where one side's probe set is empty (the short-circuit path).
func TestContainsTupleIndexAgreement(t *testing.T) {
	_, mIdx := newV1Maintainer(t, false, Options{})
	_, mScan := newV1Maintainer(t, false, Options{DisableOrphanIndex: true})
	idx, scan := mIdx.Materialized(), mScan.Materialized()
	if idx.perTable == nil || scan.perTable != nil {
		t.Fatal("fixture views do not differ on the orphan index")
	}

	probe := func(parts map[int]string) {
		t.Helper()
		var mask uint32
		keys := make([]string, len(idx.tableOrder))
		for tb, ek := range parts {
			mask |= 1 << uint(tb)
			keys[tb] = ek
		}
		key := probeKey(idx, keys)
		got, want := idx.containsTuple(mask, key), scan.containsTuple(mask, key)
		if got != want {
			t.Errorf("containsTuple(%b, %x): index says %v, scan says %v", mask, key, got, want)
		}
	}
	missing := rel.EncodeValues(rel.Int(987654))

	rows := idx.SortedRows()
	for i, row := range rows {
		if i%7 != 0 {
			continue // sample: every row costs four single + three pair probes
		}
		var present []int
		for tb := range idx.tableOrder {
			if row[idx.witnessCol[tb]].IsNull() {
				continue
			}
			present = append(present, tb)
			ek := rel.EncodeRowCols(row, idx.keyCols[tb])
			probe(map[int]string{tb: ek})
			// Same table with an absent key: the probe set is empty and both
			// sides must say false.
			probe(map[int]string{tb: missing})
		}
		// Pair probes, existing/existing and existing/missing in both orders.
		if len(present) >= 2 {
			a, b := present[0], present[1]
			ea := rel.EncodeRowCols(row, idx.keyCols[a])
			eb := rel.EncodeRowCols(row, idx.keyCols[b])
			probe(map[int]string{a: ea, b: eb})
			probe(map[int]string{a: ea, b: missing})
			probe(map[int]string{a: missing, b: eb})
		}
	}

	// Direct empty-probe regression: when the first table's chain is empty
	// the indexed path must answer false without walking the second
	// (possibly huge) chain.
	var secondKey string
	for _, row := range rows {
		if !row[idx.witnessCol[1]].IsNull() {
			secondKey = rel.EncodeRowCols(row, idx.keyCols[1])
			break
		}
	}
	if secondKey == "" {
		t.Fatalf("no non-null %s row in the view", idx.tableOrder[1])
	}
	keys := make([]string, len(idx.tableOrder))
	keys[0], keys[1] = missing, secondKey
	walked := idx.walked
	if idx.containsTuple(0b11, probeKey(idx, keys)) {
		t.Error("containsTuple = true with an empty probe set on the first table")
	}
	if idx.walked != walked {
		t.Errorf("an empty first chain still cost %d link steps", idx.walked-walked)
	}
}

// TestPlanConcurrentAccess hammers the lazily-populated plan cache from
// several goroutines; the race detector turns unsynchronized cache access
// into a failure.
func TestPlanConcurrentAccess(t *testing.T) {
	_, m := newV1Maintainer(t, true, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, table := range []string{"R", "S", "T", "U"} {
				for _, fkOK := range []bool{true, false} {
					if _, err := m.Plan(table, fkOK); err != nil {
						t.Errorf("Plan(%s, %v): %v", table, fkOK, err)
					}
				}
			}
		}()
	}
	wg.Wait()
}
