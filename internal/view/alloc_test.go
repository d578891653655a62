package view

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/fixture"
	"ojv/internal/obs"
	"ojv/internal/rel"
)

// applyFixture is the benchmark's multi-view shape — three tables of three
// integer columns, a lo (b fo c) — with n view rows to stage: every a tuple
// meets four (b, c) pairs, as a join attribute spanning a small table does.
func applyFixture(t testing.TB, n int) (*Maintainer, []rel.Row) {
	t.Helper()
	cat := rel.NewCatalog()
	var out []algebra.ColRef
	for _, name := range []string{"a", "b", "c"} {
		cols := []rel.Column{{Name: name + "k", Kind: rel.KindInt}, {Name: name + "j", Kind: rel.KindInt}, {Name: name + "v", Kind: rel.KindInt}}
		if _, err := cat.CreateTable(name, cols, name+"k"); err != nil {
			t.Fatal(err)
		}
		for _, c := range cols {
			out = append(out, algebra.Col(name, c.Name))
		}
	}
	expr := &algebra.Join{
		Kind: algebra.LeftOuterJoin,
		Left: &algebra.TableRef{Name: "a"},
		Right: &algebra.Join{Kind: algebra.FullOuterJoin, Left: &algebra.TableRef{Name: "b"}, Right: &algebra.TableRef{Name: "c"},
			Pred: algebra.Eq("b", "bj", "c", "cj")},
		Pred: algebra.Eq("a", "aj", "b", "bj"),
	}
	def, err := Define(cat, "apply", expr, out)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(def, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]rel.Row, n)
	for i := range rows {
		a, bc := int64(i/4), int64(i)
		rows[i] = rel.Row{rel.Int(a), rel.Int(a), rel.Int(a % 100), rel.Int(bc), rel.Int(a), rel.Int(1), rel.Int(bc), rel.Int(a), rel.Int(2)}
	}
	return m, rows
}

// stageRows stages the insertion or the deletion of rows into a fresh
// changeset.
func stageRows(t testing.TB, m *Maintainer, rows []rel.Row, insert bool) *Changeset {
	t.Helper()
	mv := m.Materialized()
	cs := m.Begin()
	var key []byte
	for _, r := range rows {
		if insert {
			if err := cs.insertRow("primary-insert", mv.viewKey(r), r); err != nil {
				t.Fatal(err)
			}
			continue
		}
		key = mv.appendKey(key[:0], r, mv.keyCols, ^uint32(0))
		if _, ok, err := cs.deleteKey("primary-delete", key); err != nil || !ok {
			t.Fatal(fmt.Errorf("delete of %s: %v %v", r, ok, err))
		}
	}
	return cs
}

// TestViewApplyAllocBudget bounds what the stored view itself allocates per
// row applied: 2 000 view rows are inserted through one changeset and
// deleted through the next, and a cycle may allocate, per row, the inserted
// row's view-key string and nothing else — the delete builds its key in a
// reused buffer, an undo record is 8 bytes in a log buffer the maintainer
// keeps from changeset to changeset, and the per-table index allocates
// nothing per row. The store before PR 22 encoded a table key per source
// table per mutation and kept a one-entry set per distinct table key (22.5
// objects and 1.35 kB per row on this test); PR 22's kept the key and the row
// in a 56-byte undo record per mutation (2 objects, 0.41 kB).
func TestViewApplyAllocBudget(t *testing.T) {
	const n = 2000
	m, rows := applyFixture(t, n)
	cycle := func() {
		m.CommitStaged(stageRows(t, m, rows, true), &MaintStats{})
		m.CommitStaged(stageRows(t, m, rows, false), &MaintStats{})
	}
	cycle() // the slab, the maps and the log buffer reach their size here
	const rounds = 5
	objects := testing.AllocsPerRun(rounds, cycle) / n
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / rounds / n
	t.Logf("insert + delete of one view row: %.2f objects, %.0f B", objects, bytes)
	if objects > 1.1 {
		t.Errorf("a view row inserted and deleted allocates %.2f objects, budget 1.1", objects)
	}
	if bytes > 36 {
		t.Errorf("a view row inserted and deleted allocates %.0f B, budget 36", bytes)
	}
	if mv := m.Materialized(); mv.Len() != 0 {
		t.Fatalf("%d rows left in the view", mv.Len())
	}
}

// TestViewPublishAllocBudget bounds what committing a changeset allocates per
// row it touched, on a view of 32 000 rows with snapshots on and a reader
// that pins after every commit, the worst case: the next epoch is the
// previous one with the touched handles' leaves, and the paths above them,
// copied. One row costs its leaf and path — 1.2 kB, where the keyed
// trie's path, entry arrays and 56-byte undo records cost 1.6 kB — and a
// thousand fresh rows, whose handles the store hands out in a run, cost each
// leaf once: 28 B a row, where the trie paid a path per key, 574 B a row.
func TestViewPublishAllocBudget(t *testing.T) {
	const resident, bulk = 32_000, 1000
	m, rows := applyFixture(t, resident+bulk)
	m.CommitStaged(stageRows(t, m, rows[:resident], true), &MaintStats{})
	m.EnableSnapshots()
	// commitBytes stages the insertion and then the deletion of fresh, each in
	// its own changeset, and returns the bytes the two commits, each followed
	// by the pin that seals it, allocated per row.
	commitBytes := func(fresh []rel.Row) float64 {
		var total uint64
		for _, insert := range []bool{true, false} {
			cs := stageRows(t, m, fresh, insert)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m.CommitStaged(cs, &MaintStats{})
			m.Snapshot()
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
		return float64(total) / 2 / float64(len(fresh))
	}
	commitBytes(rows[resident:]) // the log buffer reaches its size here
	var one float64
	for i := 0; i < 50; i++ {
		one += commitBytes(rows[resident+i*7:resident+i*7+1]) / 50
	}
	many := commitBytes(rows[resident:])
	t.Logf("commit of a 1-row changeset: %.0f B; of a %d-row changeset: %.1f B per row", one, bulk, many)
	if one > 1400 {
		t.Errorf("committing one row allocates %.0f B, budget 1400", one)
	}
	if many > 32 {
		t.Errorf("committing %d fresh rows allocates %.1f B per row, budget 32", bulk, many)
	}
	if got := m.Snapshot().Len(); got != resident || m.Materialized().Len() != resident {
		t.Fatalf("%d rows in the epoch, %d in the view, want %d", got, m.Materialized().Len(), resident)
	}
}

// familyFixture is the benchmark's shared-prefix views: a family of n
// members over applyFixture's tables, member i σ(a.av < first+i) a ⟕ (b ⟗ c),
// with every member's snapshots on.
func familyFixture(t testing.TB, first, n int) *Maintainer {
	t.Helper()
	m, _ := applyFixture(t, 0)
	def, j := m.def, m.def.Expr.(*algebra.Join)
	leaf := func(i int) *Definition {
		a := &algebra.Select{Input: j.Left, Pred: algebra.CmpConst("a", "av", algebra.OpLt, rel.Int(int64(first+i)))}
		d, err := Define(def.cat, fmt.Sprintf("f%d", i), &algebra.Join{Kind: j.Kind, Left: a, Right: j.Right, Pred: j.Pred}, def.Output)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	f, err := NewMaintainer(leaf(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if mem, err := f.Join(leaf(i), Options{}); err != nil || mem == nil {
			t.Fatalf("member %d did not join: %v", i, err)
		}
	}
	f.EnableSnapshots()
	return f
}

// TestFamilyApplyAllocBudget bounds what a view family of 24 members — the
// benchmark's shared-prefix views — allocates for a 1-row insert and its
// commit, and the delete that undoes it, each followed by the seal a pin of
// every member makes (the worst-case readers), over 2 000 resident rows, of
// a row every member takes: the family stores, keys, undo-logs and seals
// the row once, as one view does (2 400 B a cycle when a commit published,
// the row vector's copied leaf and path included); the same walk copies the
// word vector's leaf and path (584 B a publish), and each of the 23
// filtered members publishes an epoch header and its own term counters
// (48 + 192 B a publish) over the family's two vectors. That is 2 400 +
// 2×584 + 46×240 = 14 608 B, the same on every run, when every commit
// published; sealed at the pins it is 14 768 B. The budget sits 3 % above
// the first. A leaf and path copied per member, as when each member kept a
// vector of its own, would add 0.9 kB a publish (62 832 B a cycle); one copy
// of the projected row per member 5.5 kB, a store per member more.
func TestFamilyApplyAllocBudget(t *testing.T) {
	const resident = 2000
	_, rows := applyFixture(t, resident+50)
	cycleBytes := func(m *Maintainer) float64 {
		m.CommitStaged(stageRows(t, m, rows[:resident], true), &MaintStats{})
		pinAll := func() {
			for _, mem := range m.members {
				mem.current() // the seal a pin makes, without the pin's handle
			}
		}
		cycle := func(i int) {
			row := rows[resident+i : resident+i+1]
			m.CommitStaged(stageRows(t, m, row, true), &MaintStats{})
			pinAll()
			m.CommitStaged(stageRows(t, m, row, false), &MaintStats{})
			pinAll()
		}
		cycle(0) // the log buffer reaches its size here
		var costs []float64
		for i := 1; i < 50; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cycle(i)
			runtime.ReadMemStats(&after)
			costs = append(costs, float64(after.TotalAlloc-before.TotalAlloc))
		}
		slices.Sort(costs)
		return costs[len(costs)/2]
	}
	one, family := cycleBytes(familyFixture(t, 50, 1)), cycleBytes(familyFixture(t, 50, 24))
	t.Logf("1-row insert + delete, each committed: one view %.0f B, a family of 24 %.0f B", one, family)
	if family > 15_050 {
		t.Errorf("a family of 24 allocates %.0f B for a 1-row insert and delete, budget 15050", family)
	}
}

// loadFamily commits, in one changeset, the rows σ(a.av < lt) accepts: the
// rows a family whose selection is that one stores.
func loadFamily(t testing.TB, m *Maintainer, rows []rel.Row, lt int64) {
	t.Helper()
	var take []rel.Row
	for _, r := range rows {
		if r[2].AsInt() < lt {
			take = append(take, r)
		}
	}
	m.CommitStaged(stageRows(t, m, take, true), &MaintStats{})
}

// TestMemberSnapshotRowsAllocs: reading a filtered member's snapshot
// allocates the slice it returns and nothing else, with room for exactly
// Len rows: the walk over the family's two vectors allocates nothing per
// row, leaf or level.
func TestMemberSnapshotRowsAllocs(t *testing.T) {
	_, rows := applyFixture(t, 2000)
	f := familyFixture(t, 50, 24)
	loadFamily(t, f, rows, 73)
	for _, mem := range []*Member{f.members[0], f.members[11]} {
		if !mem.filtered {
			t.Fatalf("member %s is not filtered", mem.def.Name)
		}
		snap := mem.Snapshot()
		var got []rel.Row
		if n := testing.AllocsPerRun(20, func() { got = snap.Rows() }); n != 1 {
			t.Errorf("member %s: Rows allocates %.1f objects, want 1", mem.def.Name, n)
		}
		want := 0
		for _, r := range rows {
			if r[2].AsInt() < int64(50+mem.slot) {
				want++
			}
		}
		if len(got) != want || snap.Len() != want || cap(got) != want {
			t.Errorf("member %s: %d rows in a slice of capacity %d, Len %d, want %d", mem.def.Name, len(got), cap(got), snap.Len(), want)
		}
	}
}

// BenchmarkMemberSnapshotRows reads a member's snapshot through its family
// — a family of 24 holding the 1 460 rows of σ(a.av < 73) — against a
// family of one holding just the member's rows: the narrowest member
// (1 000 rows, filtered), a middle one (1 220, filtered) and the widest
// (all 1 460, the family's whole selection, so unfiltered).
func BenchmarkMemberSnapshotRows(b *testing.B) {
	_, rows := applyFixture(b, 2000)
	family := familyFixture(b, 50, 24)
	loadFamily(b, family, rows, 73)
	for _, slot := range []int{0, 11, 23} {
		lt := 50 + slot
		alone := familyFixture(b, lt, 1)
		loadFamily(b, alone, rows, int64(lt))
		for _, c := range []struct {
			name string
			mem  *Member
		}{{"family", family.members[slot]}, {"alone", alone.members[0]}} {
			b.Run(fmt.Sprintf("lt=%d/%s", lt, c.name), func(b *testing.B) {
				snap := c.mem.Snapshot()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if len(snap.Rows()) != snap.Len() {
						b.Fatal("short read")
					}
				}
			})
		}
	}
}

// aggCommitBytes returns what one commit on V2's aggregate allocates —
// Begin, ApplyDelta of 1 000 fresh orders of 100 customers spread evenly
// over the key space, CommitStaged and a pin that seals it — over a catalog
// of the given number of customers, about nine groups in ten of them, with
// snapshots on or off: the median of five rounds, each undone by a
// maintained delete, also pinned, before the next.
func aggCommitBytes(t *testing.T, customers int, snapshots bool) uint64 {
	t.Helper()
	cat, err := fixture.COL(fixture.COLOptions{Customers: customers, Orders: customers, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	def, err := DefineAggregate(cat, "v2agg", fixture.V2Expr(), v2AggSpec())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(def, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	if snapshots {
		m.EnableSnapshots()
	}
	delta := make([]rel.Row, 1000)
	keys := make([][]rel.Value, len(delta))
	for i := range delta {
		delta[i] = rel.Row{rel.Int(int64(2*customers + i)), rel.Int(int64(i % 100 * (customers / 100))), rel.Int(int64(1 + i%9))}
		keys[i] = []rel.Value{delta[i][0]}
	}
	var costs []uint64
	var before, after runtime.MemStats
	for round := 0; round < 5; round++ {
		if err := cat.Insert("O", delta); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		cs := m.Begin()
		stats, err := m.ApplyDelta(cs, "O", nil, delta)
		if err != nil {
			t.Fatal(err)
		}
		m.CommitStaged(cs, stats)
		m.Snapshot()
		runtime.ReadMemStats(&after)
		costs = append(costs, after.TotalAlloc-before.TotalAlloc)
		deleted, err := cat.Delete("O", keys)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.OnDelete("O", deleted); err != nil {
			t.Fatal(err)
		}
		m.Snapshot()
	}
	if err := Check(m); err != nil {
		t.Fatal(err)
	}
	slices.Sort(costs)
	return costs[len(costs)/2]
}

// TestAggPublishAllocBudget bounds what snapshots add to an aggregate view's
// commit: the bytes of a commit with snapshots on less those with them off,
// for 1 000 orders over 100 groups spread among 2 000 and among 20 000. When
// groups were folded in place and published to a persistent hash trie, the
// dirty-key set, the clone of every touched group and the trie's path copies
// cost 46.5 kB and 62.1 kB. A group replaced in a fresh slot costs the epoch
// the leaf and height-1 node of its old handle; the new handles are a run off
// the free list. That is 35.5 kB and 57.5 kB: the 100 old handles share 125
// leaves and 8 height-1 nodes among 2 000 groups, and spread over 1 250
// leaves and 79 height-1 nodes among 20 000. The budgets sit about 10 % above the highest of 20 runs, and
// the cost at 20 000 groups may be at most 2× the cost at 2 000 (1.6× seen).
func TestAggPublishAllocBudget(t *testing.T) {
	snapshotBytes := func(customers int) int64 {
		return int64(aggCommitBytes(t, customers, true)) - int64(aggCommitBytes(t, customers, false))
	}
	small, large := snapshotBytes(2200), snapshotBytes(22_000)
	t.Logf("snapshots add %d B to a commit over 2 000 groups, %d B over 20 000", small, large)
	if small > 41_000 {
		t.Errorf("snapshots add %d B to a commit over 2 000 groups, budget 41000", small)
	}
	if large > 65_000 {
		t.Errorf("snapshots add %d B to a commit over 20 000 groups, budget 65000", large)
	}
	if large > 2*small {
		t.Errorf("snapshots add %d B over 20 000 groups against %d B over 2 000: more than 2×", large, small)
	}
}

// TestArenaGrowthSettles: a family carves its maintenance rows from one
// arena that it resets after every half and keeps, so exec.arena.grow_bytes
// counts the arena's growth once: the first insert-and-delete cycle grows
// it, and the same cycle again adds 0. The aggregate and the from-base
// family also run §5.3's probe chains over it.
func TestArenaGrowthSettles(t *testing.T) {
	cycle := func(t *testing.T, cat *rel.Catalog, m *Maintainer, table string, rows []rel.Row) {
		t.Helper()
		if err := cat.Insert(table, rows); err != nil {
			t.Fatal(err)
		}
		if _, err := m.OnInsert(table, rows); err != nil {
			t.Fatal(err)
		}
		keyCols := cat.Table(table).KeyCols()
		keys := make([][]rel.Value, len(rows))
		for i, r := range rows {
			keys[i] = r.Project(keyCols)
		}
		deleted, err := cat.Delete(table, keys)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.OnDelete(table, deleted); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, opts Options) (*rel.Catalog, *Maintainer, string, []rel.Row)
	}{
		{"v1-from-view", func(t *testing.T, opts Options) (*rel.Catalog, *Maintainer, string, []rel.Row) {
			cat, m := newV1Maintainer(t, false, opts)
			return cat, m, "T", insertRowsFor(cat, "T", 8, 5, false)
		}},
		{"v1-from-base", func(t *testing.T, opts Options) (*rel.Catalog, *Maintainer, string, []rel.Row) {
			opts.Strategy = StrategyFromBase
			cat, m := newV1Maintainer(t, false, opts)
			return cat, m, "T", insertRowsFor(cat, "T", 8, 5, false)
		}},
		{"aggregate", func(t *testing.T, opts Options) (*rel.Catalog, *Maintainer, string, []rel.Row) {
			cat, m := newAggMaintainerOpts(t, false, opts)
			var rows []rel.Row
			for i := 0; i < 8; i++ {
				rows = append(rows, rel.Row{rel.Int(int64(5000 + i)), rel.Int(int64(i % 30)), rel.Int(int64(1 + i%9))})
			}
			return cat, m, "O", rows
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cat, m, table, rows := tc.build(t, Options{Metrics: reg})
			grew := func() int64 {
				before := reg.Snapshot()["exec.arena.grow_bytes"]
				cycle(t, cat, m, table, rows)
				return reg.Snapshot()["exec.arena.grow_bytes"] - before
			}
			if first := grew(); first <= 0 {
				t.Fatalf("the first cycle grew the arena by %d B, want some", first)
			}
			if again := grew(); again != 0 {
				t.Fatalf("the same cycle again grew the arena by %d B, want 0", again)
			}
			if err := Check(m); err != nil {
				t.Fatal(err)
			}
		})
	}
}
