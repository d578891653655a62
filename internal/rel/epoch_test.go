package rel

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func epochFixture(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	if _, err := c.CreateTable("t", []Column{IntColumn("id"), StrColumn("s")}, "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("t", "ix_s", "s"); err != nil {
		t.Fatal(err)
	}
	return c
}

func IntColumn(name string) Column { return Column{Name: name, Kind: KindInt} }
func StrColumn(name string) Column { return Column{Name: name, Kind: KindString} }

func snapKeys(s *TableSnapshot) map[int64]string {
	out := make(map[int64]string)
	for _, r := range s.Rows() {
		out[r[0].AsInt()] = r[1].AsString()
	}
	return out
}

// TestEpochPinnedSnapshotImmutable pins an epoch, mutates the live table
// through several more publishes, and verifies the pinned epoch still
// reads exactly the state it was published with.
func TestEpochPinnedSnapshotImmutable(t *testing.T) {
	c := epochFixture(t)
	if c.Snapshot("t") != nil {
		t.Fatal("snapshot published before first PublishEpochs")
	}
	if err := c.Insert("t", []Row{{Int(1), Str("a")}, {Int(2), Str("b")}}); err != nil {
		t.Fatal(err)
	}
	c.PublishEpochs()
	pinned := c.Snapshot("t")
	if pinned == nil || pinned.Len() != 2 {
		t.Fatalf("pinned snapshot = %v", pinned)
	}

	// Mutate across many epochs: updates, deletes, inserts.
	for i := int64(3); i < 40; i++ {
		if err := c.Insert("t", []Row{{Int(i), Str(fmt.Sprintf("v%d", i))}}); err != nil {
			t.Fatal(err)
		}
		c.PublishEpochs()
	}
	if _, err := c.Update("t", []Value{Int(1)}, Row{Int(1), Str("a2")}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("t", [][]Value{{Int(2)}}); err != nil {
		t.Fatal(err)
	}
	c.PublishEpochs()

	got := snapKeys(pinned)
	if len(got) != 2 || got[1] != "a" || got[2] != "b" {
		t.Fatalf("pinned epoch changed: %v", got)
	}
	if r, ok := pinned.Get(Int(1)); !ok || r[1].AsString() != "a" {
		t.Fatalf("pinned Get(1) = %v, %v", r, ok)
	}

	cur := c.Snapshot("t")
	if cur.Epoch() <= pinned.Epoch() {
		t.Fatalf("epoch not monotonic: %d then %d", pinned.Epoch(), cur.Epoch())
	}
	got = snapKeys(cur)
	if got[1] != "a2" {
		t.Fatalf("current epoch missed the update: %v", got[1])
	}
	if _, ok := cur.Get(Int(2)); ok {
		t.Fatal("current epoch still has the deleted row")
	}
	if cur.Len() != len(got) {
		t.Fatalf("Len = %d, Range saw %d", cur.Len(), len(got))
	}
}

// TestEpochTracksLiveTable drives 200 publishes of inserts and deletes, with
// an update of an indexed column thrown in, and checks every epoch against
// the live table.
func TestEpochTracksLiveTable(t *testing.T) {
	c := epochFixture(t)
	c.PublishEpochs()
	tab := c.Table("t")
	for i := int64(0); i < 200; i++ {
		if err := c.Insert("t", []Row{{Int(i), Str("v")}}); err != nil {
			t.Fatal(err)
		}
		switch {
		case i%2 == 0:
			if _, err := c.Delete("t", [][]Value{{Int(i)}}); err != nil {
				t.Fatal(err)
			}
		case i%5 == 0:
			if _, err := c.Update("t", []Value{Int(i)}, Row{Int(i), Str("w")}); err != nil {
				t.Fatal(err)
			}
		}
		c.PublishEpochs()
		snap := c.Snapshot("t")
		if snap.Len() != tab.Len() || len(snap.Rows()) != tab.Len() {
			t.Fatalf("publish %d: snapshot len %d, %d rows, live len %d", i, snap.Len(), len(snap.Rows()), tab.Len())
		}
		for _, r := range snap.Rows() {
			if live, ok := tab.Get(r[0]); !ok || !live.Equal(r) {
				t.Fatalf("publish %d: snapshot row %v, live %v (%v)", i, r, live, ok)
			}
		}
	}
	checkEpochSlots(t, tab)
}

// TestEpochRollbackNeutral verifies that a mutation rolled back before the
// publish leaves the next epoch identical to the previous one.
func TestEpochRollbackNeutral(t *testing.T) {
	c := epochFixture(t)
	if err := c.Insert("t", []Row{{Int(1), Str("a")}}); err != nil {
		t.Fatal(err)
	}
	c.PublishEpochs()
	before := snapKeys(c.Snapshot("t"))

	rows := []Row{{Int(2), Str("b")}}
	if err := c.Insert("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := c.Rollback([]string{"t"}); err != nil {
		t.Fatal(err)
	}
	c.PublishEpochs()
	after := snapKeys(c.Snapshot("t"))
	if len(after) != len(before) || after[1] != "a" {
		t.Fatalf("rolled-back mutation leaked into the epoch: %v", after)
	}
	if c.Snapshot("t").Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Snapshot("t").Len())
	}
}

// TestEpochPublishHammer publishes 10 000 epochs of one table through the
// catalog while two readers pin snapshots. Row 0 carries the sum of every
// other row's value, rewritten in the same publish as each change, so a
// reader that saw part of a publish — or a node the writer edited in place
// after publishing it — reads a sum that does not match. Run under -race.
func TestEpochPublishHammer(t *testing.T) {
	const epochs = 10_000
	c := NewCatalog()
	if _, err := c.CreateTable("t", []Column{IntColumn("id"), IntColumn("v")}, "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("t", "ix_v", "v"); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("t", []Row{{Int(0), Int(0)}}); err != nil {
		t.Fatal(err)
	}
	c.PublishEpochs()

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for !done.Load() {
				snap := c.Snapshot("t")
				if snap.Epoch() < last {
					t.Errorf("epoch went back: %d then %d", last, snap.Epoch())
					return
				}
				last = snap.Epoch()
				rows := snap.Rows()
				if len(rows) != snap.Len() {
					t.Errorf("epoch %d: %d rows, Len %d", last, len(rows), snap.Len())
					return
				}
				var sum, check int64
				for _, row := range rows {
					if row[0].AsInt() == 0 {
						check = row[1].AsInt()
					} else {
						sum += row[1].AsInt()
					}
				}
				if sum != check {
					t.Errorf("epoch %d: rows sum to %d, checksum row says %d", last, sum, check)
					return
				}
				if row, ok := snap.Get(Int(0)); !ok || row[1].AsInt() != check {
					t.Errorf("epoch %d: Get(0) = %v,%v, Rows saw checksum %d", last, row, ok, check)
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(5))
	present := make(map[int64]int64)
	var sum int64
	for e := 0; e < epochs && !t.Failed(); e++ {
		id := int64(1 + rng.Intn(300))
		v := int64(rng.Intn(1000))
		var err error
		if old, ok := present[id]; !ok {
			err = c.Insert("t", []Row{{Int(id), Int(v)}})
			present[id], sum = v, sum+v
		} else if rng.Intn(2) == 0 {
			_, err = c.Update("t", []Value{Int(id)}, Row{Int(id), Int(v)})
			present[id], sum = v, sum-old+v
		} else {
			_, err = c.Delete("t", [][]Value{{Int(id)}})
			delete(present, id)
			sum -= old
		}
		if err == nil {
			_, err = c.Update("t", []Value{Int(0)}, Row{Int(0), Int(sum)})
		}
		if err != nil {
			t.Fatal(err)
		}
		c.PublishTableEpochs([]string{"t"})
	}
	done.Store(true)
	wg.Wait()
	if got := c.Snapshot("t").Len(); got != len(present)+1 {
		t.Fatalf("final snapshot has %d rows, want %d", got, len(present)+1)
	}
}

// publishBytesPerRound returns the bytes allocated by one 1-row insert plus
// PublishTableEpochs and a pin that seals it — the reader that pins after
// every commit, the worst case — on a table of n rows with a secondary index,
// averaged over 32 rounds (each round's delete, publish and pin are not
// counted).
func publishBytesPerRound(t *testing.T, n int) float64 {
	c := NewCatalog()
	if _, err := c.CreateTable("t", []Column{IntColumn("id"), IntColumn("g"), StrColumn("s")}, "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("t", "ix_g", "g"); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Int(int64(i / 4)), Str("payload")}
	}
	if err := c.Insert("t", rows); err != nil {
		t.Fatal(err)
	}
	c.PublishEpochs()
	names := []string{"t"}
	const rounds = 32
	var total uint64
	var before, after runtime.MemStats
	for r := 0; r < rounds; r++ {
		row := []Row{{Int(int64(n + r)), Int(7), Str("payload")}}
		runtime.ReadMemStats(&before)
		if err := c.Insert("t", row); err != nil {
			t.Fatal(err)
		}
		c.PublishTableEpochs(names)
		c.Snapshot("t")
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
		if _, err := c.Delete("t", [][]Value{{row[0][0]}}); err != nil {
			t.Fatal(err)
		}
		c.PublishTableEpochs(names)
		c.Snapshot("t")
	}
	if got := c.Snapshot("t").Len(); got != n {
		t.Fatalf("snapshot has %d rows after the rounds, want %d", got, n)
	}
	return float64(total) / rounds
}

// TestPublishAllocBudget is the allocation guard for epoch publishing, in
// the mould of exec's TestAllocBudget and run beside it in CI: a 1-row
// statement and its publish must cost the same whatever the table's size.
// Any O(container) work on the publish path — a copied map, a rebuilt
// index — fails both bounds at 200 k rows.
func TestPublishAllocBudget(t *testing.T) {
	small := publishBytesPerRound(t, 2_000)
	large := publishBytesPerRound(t, 200_000)
	t.Logf("insert + publish: %.0f B at 2 k rows, %.0f B at 200 k rows", small, large)
	if large >= 4096 {
		t.Errorf("1-row insert + publish on 200 k rows allocates %.0f B, budget 4096", large)
	}
	if large > 2*small {
		t.Errorf("1-row insert + publish allocates %.0f B on 200 k rows against %.0f B on 2 k rows: more than 2×", large, small)
	}
}

// tableCommitBytes returns the bytes one commit of a delta of n fresh rows —
// the insert, its PublishTableEpochs and a pin that seals it — allocates on a
// published table of 32 000 rows with one secondary index, the median of five
// commits, each undone (and published and pinned) before the next.
func tableCommitBytes(t *testing.T, n int) uint64 {
	t.Helper()
	c := NewCatalog()
	if _, err := c.CreateTable("t", []Column{IntColumn("id"), IntColumn("g"), StrColumn("s")}, "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("t", "ix_g", "g"); err != nil {
		t.Fatal(err)
	}
	const live = 32_000
	rows := make([]Row, live+n)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Int(int64(i / 8)), Str("payload")}
	}
	if err := c.Insert("t", rows[:live]); err != nil {
		t.Fatal(err)
	}
	c.PublishEpochs()
	names, delta := []string{"t"}, rows[live:]
	keys := make([][]Value, n)
	for i, r := range delta {
		keys[i] = []Value{r[0]}
	}
	var costs []uint64
	var before, after runtime.MemStats
	for round := 0; round < 5; round++ {
		runtime.ReadMemStats(&before)
		if err := c.Insert("t", delta); err != nil {
			t.Fatal(err)
		}
		c.PublishTableEpochs(names)
		c.Snapshot("t")
		runtime.ReadMemStats(&after)
		costs = append(costs, after.TotalAlloc-before.TotalAlloc)
		if _, err := c.Delete("t", keys); err != nil {
			t.Fatal(err)
		}
		c.PublishTableEpochs(names)
		c.Snapshot("t")
	}
	if got := c.Snapshot("t").Len(); got != live {
		t.Fatalf("snapshot has %d rows after the rounds, want %d", got, live)
	}
	slices.Sort(costs)
	return costs[len(costs)/2]
}

// TestTablePublishAllocBudget bounds what committing a base-table delta
// allocates with snapshots on: the rows' copies, their keys and index
// entries, and the epoch publish. The commit before tables published a row
// vector, when a table epoch was a string-keyed hash trie, measured 1 624 B
// for a 1-row delta and 863 496 B for a 1 000-row delta on this table; the
// row vector measures 1 304 B and 265 480 B. The budgets sit about 10 %
// above, so a key structure written at publish — the trie's entries and
// copied paths — fails the 1 000-row bound three times over.
func TestTablePublishAllocBudget(t *testing.T) {
	one, bulk := tableCommitBytes(t, 1), tableCommitBytes(t, 1000)
	t.Logf("commit of a 1-row delta: %d B; of a 1000-row delta: %d B", one, bulk)
	if one > 1_450 {
		t.Errorf("1-row commit allocates %d B, budget 1450", one)
	}
	if bulk > 292_000 {
		t.Errorf("1000-row commit allocates %d B, budget 292000", bulk)
	}
}
