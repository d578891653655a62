package view

import (
	"errors"
	"strings"
	"testing"

	"ojv/internal/rel"
)

func fingerprintRows(rows []rel.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(rel.EncodeValues(r...))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestViewEpochPinnedAcrossCommits pins a snapshot, runs several committed
// maintenance passes, and verifies the pinned epoch still reads the state
// it was published with while fresh snapshots track the live view.
func TestViewEpochPinnedAcrossCommits(t *testing.T) {
	cat, m := newV1Maintainer(t, false, Options{})
	if m.Snapshot() != nil {
		t.Fatal("snapshot exists before EnableSnapshots")
	}
	m.EnableSnapshots()
	pinned := m.Snapshot()
	if pinned == nil {
		t.Fatal("no snapshot after EnableSnapshots")
	}
	wantPinned := fingerprintRows(pinned.SortedRows())
	if wantPinned != fingerprintRows(m.Materialized().SortedRows()) {
		t.Fatal("initial epoch does not match the stored view")
	}

	lastEpoch := pinned.Epoch()
	for round := int64(0); round < 5; round++ {
		runInsert(t, cat, m, "R", insertRowsFor(cat, "R", 4, 100+round, false))
		runDelete(t, cat, m, "S", deletableKeys(t, cat, "S", 1, false))

		cur := m.Snapshot()
		if cur.Epoch() <= lastEpoch {
			t.Fatalf("epoch not monotonic: %d then %d", lastEpoch, cur.Epoch())
		}
		lastEpoch = cur.Epoch()
		if got := fingerprintRows(cur.SortedRows()); got != fingerprintRows(m.Materialized().SortedRows()) {
			t.Fatalf("round %d: snapshot diverged from stored view", round)
		}
		if cur.Len() != m.Materialized().Len() {
			t.Fatalf("round %d: snapshot Len %d != view Len %d", round, cur.Len(), m.Materialized().Len())
		}
	}
	if got := fingerprintRows(pinned.SortedRows()); got != wantPinned {
		t.Fatal("pinned epoch changed under maintenance")
	}
}

// TestViewEpochRollbackPublishesNothing injects a fault mid-run and checks
// that the failed (rolled back) run neither publishes a new epoch nor
// corrupts the next successful publish.
func TestViewEpochRollbackPublishesNothing(t *testing.T) {
	var failing bool
	opts := Options{FailPoint: func(site string) error {
		if failing {
			return errors.New("injected at " + site)
		}
		return nil
	}}
	cat, m := newV1Maintainer(t, false, opts)
	m.EnableSnapshots()
	before := m.Snapshot()
	beforeFP := fingerprintRows(before.SortedRows())

	cat.PublishEpochs() // the base rollback below returns R to this epoch
	failing = true
	rows := insertRowsFor(cat, "R", 6, 300, false)
	if err := cat.Insert("R", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OnInsert("R", rows); err == nil {
		t.Fatal("expected injected fault")
	}
	if err := cat.Rollback([]string{"R"}); err != nil {
		t.Fatal(err)
	}
	after := m.Snapshot()
	if after.Epoch() != before.Epoch() {
		t.Fatalf("rolled-back run published an epoch: %d -> %d", before.Epoch(), after.Epoch())
	}
	if fingerprintRows(after.SortedRows()) != beforeFP {
		t.Fatal("rolled-back run changed the published state")
	}

	// The next real commit publishes from the restored store.
	failing = false
	runInsert(t, cat, m, "R", insertRowsFor(cat, "R", 3, 301, false))
	cur := m.Snapshot()
	if got := fingerprintRows(cur.SortedRows()); got != fingerprintRows(m.Materialized().SortedRows()) {
		t.Fatal("post-rollback publish diverged from stored view")
	}
}

// TestViewEpochTermCardinality checks the per-term counters ride along with
// the epoch: a pinned snapshot keeps the old cardinalities.
func TestViewEpochTermCardinality(t *testing.T) {
	cat, m := newV1Maintainer(t, false, Options{})
	m.EnableSnapshots()
	pinned := m.Snapshot()
	tables := m.Materialized().tableOrder
	before := make([]int, len(tables))
	for i := range tables {
		before[i] = pinned.TermCardinality(tables[:i+1])
	}
	runInsert(t, cat, m, "R", insertRowsFor(cat, "R", 8, 200, false))
	for i := range tables {
		if got := pinned.TermCardinality(tables[:i+1]); got != before[i] {
			t.Fatalf("pinned TermCardinality(%v) changed: %d -> %d", tables[:i+1], before[i], got)
		}
	}
	cur := m.Snapshot()
	for i := range tables {
		if got, want := cur.TermCardinality(tables[:i+1]), m.Materialized().TermCardinality(tables[:i+1]); got != want {
			t.Fatalf("current TermCardinality(%v) = %d, want %d", tables[:i+1], got, want)
		}
	}
}

// TestAggEpochPinnedAcrossCommits exercises epochs over an aggregation
// view, whose groups are replaced in fresh slots and never written in place:
// a pinned epoch keeps its groups across commits and across a changeset that
// replaces groups and is rolled back.
func TestAggEpochPinnedAcrossCommits(t *testing.T) {
	cat, m := newAggMaintainer(t, false)
	m.EnableSnapshots()
	pinned := m.Snapshot()
	wantPinned := fingerprintRows(pinned.Rows())

	for i := int64(0); i < 6; i++ {
		rows := []rel.Row{{rel.Int(3000 + i), rel.Int(i % 7)}}
		runInsert(t, cat, m, "C", rows)
		oRows := []rel.Row{{rel.Int(3000 + i), rel.Int(9000 + i), rel.Int(i)}}
		runInsert(t, cat, m, "O", oRows)
	}
	if got := fingerprintRows(pinned.Rows()); got != wantPinned {
		t.Fatal("pinned aggregation epoch changed under maintenance (groups aliased?)")
	}
	cur := m.Snapshot()
	if got := fingerprintRows(cur.Rows()); got != fingerprintRows(m.Aggregated().Rows()) {
		t.Fatal("current aggregation snapshot diverged from stored view")
	}
	if cur.Len() != m.Aggregated().Len() {
		t.Fatalf("snapshot Len %d != view Len %d", cur.Len(), m.Aggregated().Len())
	}
	if cur.Epoch() <= pinned.Epoch() {
		t.Fatal("aggregation epoch not monotonic")
	}

	wantCur := fingerprintRows(cur.Rows())
	cat.PublishEpochs() // the base rollback below returns O to this epoch
	oRows := []rel.Row{{rel.Int(3100), rel.Int(3001), rel.Int(5)}, {rel.Int(3101), rel.Int(3003), rel.Int(7)}}
	if err := cat.Insert("O", oRows); err != nil {
		t.Fatal(err)
	}
	cs := m.Begin()
	if _, err := m.ApplyDelta(cs, "O", nil, oRows); err != nil {
		t.Fatal(err)
	}
	if cs.Len() == 0 {
		t.Fatal("the changeset replaced no group")
	}
	if err := m.RollbackStaged(cs); err != nil {
		t.Fatal(err)
	}
	if err := cat.Rollback([]string{"O"}); err != nil {
		t.Fatal(err)
	}
	if got := fingerprintRows(pinned.Rows()); got != wantPinned {
		t.Fatal("pinned aggregation epoch changed under a rolled-back changeset")
	}
	if after := m.Snapshot(); after.Epoch() != cur.Epoch() || fingerprintRows(after.Rows()) != wantCur {
		t.Fatal("a rolled-back changeset changed the published aggregation epoch")
	}
	if got := fingerprintRows(m.Aggregated().Rows()); got != wantCur {
		t.Fatal("a rolled-back changeset changed the stored groups")
	}
	if err := Check(m); err != nil {
		t.Fatal(err)
	}
}

// TestEpochRematerializePublishesFull verifies Materialize republishes a
// fresh full epoch when snapshots are enabled.
func TestEpochRematerializePublishesFull(t *testing.T) {
	cat, m := newV1Maintainer(t, false, Options{})
	m.EnableSnapshots()
	first := m.Snapshot().Epoch()
	// Mutate the base without maintaining, then rebuild from scratch.
	rows := insertRowsFor(cat, "R", 5, 400, false)
	if err := cat.Insert("R", rows); err != nil {
		t.Fatal(err)
	}
	if err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	cur := m.Snapshot()
	if cur.Epoch() <= first {
		t.Fatal("Materialize did not publish a new epoch")
	}
	if got := fingerprintRows(cur.SortedRows()); got != fingerprintRows(m.Materialized().SortedRows()) {
		t.Fatal("rebuilt epoch diverged from stored view")
	}
}

// TestFamilyPublishCopies: a commit copies nodes of the family's two
// vectors and nothing per member. The word vector has the row vector's
// shape, so its transaction copies exactly the nodes a row transaction over
// the handles the commit changed copies (rowCopies replays them); a family
// of 24 copies the words a family of 2 copies, and a family of one keeps no
// word transaction at all. And every member a commit concerns seals the
// family's vectors themselves when it is pinned, here after every commit.
// What the row transaction itself copies is the container's
// (rel.TestUnpinnedCommitsCopyOnce).
func TestFamilyPublishCopies(t *testing.T) {
	_, rows := applyFixture(t, 2100)
	copies := func(n int) []int {
		f := familyFixture(t, 50, n)
		f.CommitStaged(stageRows(t, f, rows[:2000], true), &MaintStats{})
		var out []int
		for _, batch := range [][]rel.Row{rows[2000:2001], rows[2001:2100]} {
			for _, insert := range []bool{true, false} {
				f.CommitStaged(stageRows(t, f, batch, insert), &MaintStats{})
				switch {
				case n == 1 && f.openWords != nil:
					t.Fatal("a family of one opened a word transaction")
				case n > 1 && f.openWords.Copied() != rowCopies(f):
					t.Errorf("family of %d: commit %d copies %d word nodes, the rows' paths have %d", n, len(out), f.openWords.Copied(), rowCopies(f))
				case n > 1:
					out = append(out, f.openWords.Copied())
				}
				for _, mem := range f.members {
					ep := mem.Snapshot().ep
					if ep.rows != f.st.Sealed() || mem.filtered && ep.words != f.epochWords || !mem.filtered && ep.words != nil {
						t.Fatalf("family of %d: member %s publishes vectors of its own", n, mem.def.Name)
					}
				}
			}
		}
		return out
	}
	copies(1)
	two, many := copies(2), copies(24)
	for i := range two {
		if i >= len(many) || many[i] != two[i] {
			t.Errorf("commit %d: a family of 24 copies %v word nodes, a family of 2 %v", i, many, two)
			break
		}
	}
}

// rowCopies returns the nodes a transaction over the family's sealed rows
// copies when it sets or clears every handle whose committed row differs
// from the sealed one: what the commits since the seal cost the row vector.
func rowCopies(f *Maintainer) int {
	sealed := f.st.Sealed()
	tx := sealed.Edit()
	for h := int32(0); h < f.st.Used(); h++ {
		old, had := sealed.Get(h)
		sl := f.st.At(h)
		at, linked := f.st.Lookup(sl.Key)
		switch live := sl.Row != nil && linked && at == h; {
		case live && (!had || &old[0] != &sl.Row[0]):
			tx.Set(h, sl.Row)
		case !live && had:
			tx.Clear(h)
		}
	}
	return tx.Copied()
}

// TestFamilyUnpinnedCommitsCopyOnce: commits with no pin between them walk
// into one open word transaction beside the rows' (the rows' own copies are
// rel's TestUnpinnedCommitsCopyOnce), so a word node they all touch is
// copied once. 64 commits that insert and delete one row, alternately, all
// at the handle the store's free list hands back, copy exactly the word
// nodes the first one copies — its path in the word vector — where
// publishing at every commit copied it every time; and the pin that follows
// seals every member at the number of the last commit that concerned it.
func TestFamilyUnpinnedCommitsCopyOnce(t *testing.T) {
	_, rows := applyFixture(t, 2001)
	f := familyFixture(t, 50, 24)
	f.CommitStaged(stageRows(t, f, rows[:2000], true), &MaintStats{})
	before := make([]uint64, len(f.members))
	for i, mem := range f.members {
		before[i] = mem.Snapshot().Epoch()
	}
	row := rows[2000:] // every member takes it
	copied := func() int {
		if f.openWords == nil {
			t.Fatal("a commit sealed the family's words that no reader pinned")
		}
		return f.openWords.Copied()
	}
	var first int
	const commits = 64
	for i := 0; i < commits; i++ {
		f.CommitStaged(stageRows(t, f, row, i%2 == 0), &MaintStats{})
		if i == 0 {
			first = copied()
		}
	}
	if got := copied(); got != first || first == 0 {
		t.Errorf("%d unpinned commits copied %d nodes, the first alone %d", commits, got, first)
	}
	for i, mem := range f.members {
		if ep := mem.ep.Load(); ep.seq != before[i] {
			t.Fatalf("member %s: a commit published epoch %d that no reader pinned", mem.def.Name, ep.seq)
		}
		if got := mem.Snapshot().Epoch(); got != before[i]+commits {
			t.Errorf("member %s: the pin sealed epoch %d, want %d", mem.def.Name, got, before[i]+commits)
		}
		if err := mem.checkEpoch(mem.rows()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFamilyCommitPanicRewalks: a family's walk that panics (here in its
// per-record hook, the membership words cut short under it) keeps every
// member's last sealed epoch, though an earlier commit left the members
// dirty, and the family's next changeset, which begins after the
// interrupted records, commits them with its own: the pin after it seals
// every member with rows, row count and term counters equal to the store's,
// and the slot of a row deleted in the interrupted run is released. The
// hook panics on a row some member holds, so the walk must give its slot
// back the old row, or the counters would miss the row.
func TestFamilyCommitPanicRewalks(t *testing.T) {
	_, rows := applyFixture(t, 2100)
	f := familyFixture(t, 50, 3)
	f.CommitStaged(stageRows(t, f, rows[:2000], true), &MaintStats{})
	sealed := make([]*viewEpoch, len(f.members))
	for i, mem := range f.members {
		sealed[i] = mem.current()
	}
	f.CommitStaged(stageRows(t, f, rows[2000:2001], true), &MaintStats{}) // unpinned
	h, _ := f.st.Lookup(f.mv.viewKey(rows[1]))
	held := rows[2001]
	for _, r := range rows[2001:] {
		if f.mv.membership(r) != 0 {
			held = r
			break
		}
	}
	cs := stageRows(t, f, rows[1:2], false)
	if err := cs.insertRow("primary-insert", f.mv.viewKey(held), held); err != nil {
		t.Fatal(err)
	}
	bits := f.mv.bits
	f.mv.bits = nil
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the walk did not panic")
			}
		}()
		f.CommitStaged(cs, &MaintStats{})
	}()
	f.mv.bits = bits
	for i, mem := range f.members {
		if ep := mem.current(); ep != sealed[i] {
			t.Fatalf("member %s: a pin after the panicked walk returned epoch %d, not the last sealed %d", mem.def.Name, ep.seq, sealed[i].seq)
		}
	}
	if f.st.At(h).Row == nil {
		t.Fatal("the panicked walk released the slot of the row it deleted")
	}
	var more []rel.Row
	for _, r := range rows[2001:] {
		if &r[0] != &held[0] {
			more = append(more, r)
		}
	}
	f.CommitStaged(stageRows(t, f, more, true), &MaintStats{})
	if f.st.Pending() != 0 || f.st.At(h).Row != nil && f.st.At(h).Key == f.mv.viewKey(rows[1]) {
		t.Fatalf("the next commit left %d records, the deleted row's slot %d unreleased", f.st.Pending(), h)
	}
	for _, mem := range f.members {
		if err := mem.checkEpoch(mem.rows()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFamilyPatternPanicRewalks: a walk that panics while it reads a
// record's term pattern — here on the deleted row of a filtered member —
// must not have moved the record's membership word or any counter yet, so
// the re-walk the next commit makes counts the record once, under the word
// it had: every member's Len and TermCardinality then equal a scan of its
// rows.
func TestFamilyPatternPanicRewalks(t *testing.T) {
	_, rows := applyFixture(t, 2001)
	f := familyFixture(t, 50, 3)
	f.CommitStaged(stageRows(t, f, rows[:2000], true), &MaintStats{})
	held := -1
	for i, r := range rows[:2000] {
		if f.mv.membership(r) != 0 {
			held = i
			break
		}
	}
	if held < 0 {
		t.Fatal("no filtered member holds a row")
	}
	for _, mem := range f.members {
		mem.current()
	}
	cs := stageRows(t, f, rows[held:held+1], false)
	witness := f.mv.witnessCol
	f.mv.witnessCol = []int{len(rows[held]) + 1} // pattern reads out of range
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the walk did not panic")
			}
		}()
		f.CommitStaged(cs, &MaintStats{})
	}()
	f.mv.witnessCol = witness
	f.CommitStaged(stageRows(t, f, rows[2000:], true), &MaintStats{})
	for _, mem := range f.members {
		if err := mem.checkEpoch(mem.rows()); err != nil {
			t.Error(err)
		}
	}
}
