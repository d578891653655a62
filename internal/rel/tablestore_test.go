package rel

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// The table-store model test: random streams of inserts, deletes, updates
// (both appliers, moving an indexed column or not), failed-component
// rollbacks, publishes and index DDL (declared indexes, arrangements acquired
// and released) run against a catalog and against two maps — the rows as of
// the last publish and the rows now. After every op the live table, its slab
// and every index bucket must match the model; after every publish and
// rollback the epoch must equal the slab slot for slot; a rollback must leave
// every surviving row at its handle; and no handle may be handed out again
// before the delete that freed it publishes. The last 64 snapshots stay
// pinned with the rows they were published with and are re-read, by walk and
// by key, after every publish.

// storeCols are the column sets an index or arrangement may cover: g, s,
// and both.
var storeCols = [][]string{{"g"}, {"s"}, {"s", "g"}}

type tablePin struct {
	snap *TableSnapshot
	rows map[int64]Row
}

type tableStore struct {
	t         testing.TB
	c         *Catalog
	tab       *Table
	live      map[int64]Row
	committed map[int64]Row
	// published holds every committed key's handle at the last publish;
	// freed the handles deleted since, whose slots wait for the next one.
	published map[int64]int32
	freed     map[int32]bool
	arranged  []*Index
	declared  int
	pins      []tablePin
	serial    int64
}

func newTableStore(t testing.TB) *tableStore {
	c := NewCatalog()
	if _, err := c.CreateTable("t", []Column{IntColumn("id"), IntColumn("g"), StrColumn("s")}, "id"); err != nil {
		t.Fatal(err)
	}
	s := &tableStore{t: t, c: c, tab: c.Table("t"), live: map[int64]Row{}}
	s.publish(false)
	return s
}

func (s *tableStore) row(id int64, b byte) Row {
	s.serial++
	return Row{Int(id), Int(int64(b % 4)), Str(string(rune('x' + b>>2%3)))}
}

// do runs one op: a control byte and two parameter bytes.
func (s *tableStore) do(op, p, q byte) {
	s.t.Helper()
	id := int64(p % 32)
	var err error
	var wantErr bool
	switch op % 16 {
	case 0, 1, 2, 3: // insert one or two rows, sometimes a present or repeated key
		rows := []Row{s.row(id, q)}
		if op&0x10 != 0 {
			rows = append(rows, s.row(int64(q%32), p))
		}
		wantErr = s.live[id] != nil || len(rows) == 2 && (s.live[int64(q%32)] != nil || q%32 == p%32)
		err = s.c.Insert("t", rows)
		if err == nil {
			for _, r := range rows {
				s.live[r[0].AsInt()], _ = s.tab.Get(r[0]) // the stored copy
				if h := handleOf(s.tab, s.tab.KeyOf(r)); s.freed[h] {
					s.t.Fatalf("insert of %s reuses handle %d before its delete published", r, h)
				}
			}
		}
	case 4, 5, 6: // delete
		keys := [][]Value{{Int(id)}}
		wantErr = s.live[id] == nil
		var got []Row
		h := handleOf(s.tab, EncodeValues(Int(id)))
		got, err = s.c.Delete("t", keys)
		if err == nil {
			if len(got) != 1 || !sameRow(got[0], s.tab.rows.slab.At(h).Row) {
				s.t.Fatalf("delete of %d returned %v, not the row still in its slot", id, got)
			}
			delete(s.live, id)
			s.freed[h] = true
		}
	case 7, 8, 9: // update, half the time moving no indexed column
		wantErr = s.live[id] == nil
		nw := s.row(id, q)
		if old := s.live[id]; old != nil && q&0x80 != 0 {
			nw[1], nw[2] = old[1], old[2]
		}
		h := handleOf(s.tab, EncodeValues(Int(id)))
		if _, err = s.c.Update("t", []Value{Int(id)}, nw); err == nil {
			s.live[id], _ = s.tab.Get(Int(id))
			if got := handleOf(s.tab, EncodeValues(Int(id))); got != h {
				s.t.Fatalf("update of %d moved it from handle %d to %d", id, h, got)
			}
		}
	case 10, 11: // publish, the whole catalog or the one table
		s.publish(op&0x10 != 0)
	case 12: // a failed component rolls its table back
		if err := s.c.Rollback([]string{"t"}); err != nil {
			s.t.Fatal(err)
		}
		s.live = maps.Clone(s.committed)
		s.freed = map[int32]bool{}
		s.check("rollback")
		for id, h := range s.published {
			if got := handleOf(s.tab, EncodeValues(Int(id))); got != h {
				s.t.Fatalf("rollback moved row %d from handle %d to %d", id, h, got)
			}
		}
		checkEpochSlots(s.t, s.tab)
		return
	case 13: // declare an index (at most four)
		if s.declared >= 4 {
			break
		}
		s.declared++
		_, err = s.c.CreateIndex("t", fmt.Sprintf("ix%d", s.serial), storeCols[q%3]...)
		s.serial++
	case 14: // acquire an arrangement
		ix, aerr := s.c.Arrange("t", s.offsets(storeCols[q%3]))
		if err = aerr; err == nil {
			s.arranged = append(s.arranged, ix)
		}
	default: // release the latest arrangement
		if len(s.arranged) == 0 {
			break
		}
		ix := s.arranged[len(s.arranged)-1]
		s.arranged = s.arranged[:len(s.arranged)-1]
		s.c.Release("t", ix)
	}
	if (err != nil) != wantErr {
		s.t.Fatalf("op %#x on key %d: err = %v, the model expects an error: %v", op, id, err, wantErr)
	}
	s.check(fmt.Sprintf("op %#x", op))
}

func (s *tableStore) offsets(cols []string) []int {
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = s.tab.schema.MustIndexOf("t", c)
	}
	return out
}

// publish publishes, checks the new epoch against the slab and the model,
// pins it, and re-reads every pinned epoch.
func (s *tableStore) publish(tableOnly bool) {
	s.t.Helper()
	if tableOnly {
		s.c.PublishTableEpochs([]string{"t"})
	} else {
		s.c.PublishEpochs()
	}
	s.committed = maps.Clone(s.live)
	s.published = make(map[int64]int32, len(s.live))
	for id := range s.live {
		s.published[id] = handleOf(s.tab, EncodeValues(Int(id)))
	}
	s.freed = map[int32]bool{}
	if len(s.tab.rows.log) != 0 {
		s.t.Fatalf("publish left %d log records", len(s.tab.rows.log))
	}
	checkEpochSlots(s.t, s.tab)
	if s.pins = append(s.pins, tablePin{s.c.Snapshot("t"), s.committed}); len(s.pins) > 64 {
		s.pins = s.pins[1:]
	}
	for i, p := range s.pins {
		checkSnapshot(s.t, p.snap, p.rows, fmt.Sprintf("pinned epoch %d of %d", i, len(s.pins)))
	}
}

// checkSnapshot reads a snapshot by walk and by key — every row's key, and
// the keys around them that it lacks — against the rows it was published
// with.
func checkSnapshot(t testing.TB, snap *TableSnapshot, want map[int64]Row, what string) {
	t.Helper()
	got := snap.Rows()
	if len(got) != len(want) || snap.Len() != len(want) {
		t.Fatalf("%s: %d rows walked, Len %d, model %d", what, len(got), snap.Len(), len(want))
	}
	for _, r := range got {
		if !sameRow(r, want[r[0].AsInt()]) {
			t.Fatalf("%s: walk yields %s, model has %s", what, r, want[r[0].AsInt()])
		}
	}
	for id := int64(-1); id <= 32; id++ {
		r, ok := snap.Get(Int(id))
		if ok != (want[id] != nil) || !sameRow(r, want[id]) {
			t.Fatalf("%s: Get(%d) = %s, %v; model has %s", what, id, r, ok, want[id])
		}
		if r2, _ := snap.GetEncoded(EncodeValues(Int(id))); !sameRow(r2, r) {
			t.Fatalf("%s: GetEncoded(%d) = %s, Get %s", what, id, r2, r)
		}
	}
}

// check holds the live table — rows, handles, slab, indexes — against the
// model.
func (s *tableStore) check(what string) {
	s.t.Helper()
	tab := s.tab
	if tab.Len() != len(s.live) {
		s.t.Fatalf("%s: table has %d rows, model %d", what, tab.Len(), len(s.live))
	}
	for id, want := range s.live {
		if got, ok := tab.Get(Int(id)); !ok || !sameRow(got, want) {
			s.t.Fatalf("%s: Get(%d) = %s, %v; model has %s", what, id, got, ok, want)
		}
	}
	// Every handle below used is live, free, or a deleted row's slot
	// waiting for the publish — exactly once.
	free := map[int32]bool{}
	for _, h := range tab.rows.slab.free {
		if free[h] || s.freed[h] || h >= tab.rows.slab.used {
			s.t.Fatalf("%s: free list holds handle %d twice, out of range or before its publish", what, h)
		}
		free[h] = true
		if sl := tab.rows.slab.At(h); sl.Key != "" || sl.Row != nil {
			s.t.Fatalf("%s: free slot %d holds %s", what, h, sl.Row)
		}
	}
	for h := range s.freed {
		sl := tab.rows.slab.At(h)
		if sl.Row == nil || handleOf(tab, sl.Key) == h {
			s.t.Fatalf("%s: deleted slot %d is cleared or still linked before the publish", what, h)
		}
	}
	if n := tab.rows.Len() + len(free) + len(s.freed); n != int(tab.rows.slab.used) {
		s.t.Fatalf("%s: %d live + %d free + %d deleted handles, %d handed out", what, tab.rows.Len(), len(free), len(s.freed), tab.rows.slab.used)
	}
	if want := (int(tab.rows.slab.used) + SlabChunk - 1) / SlabChunk; len(tab.rows.slab.chunks) != want {
		s.t.Fatalf("%s: %d slab chunks for %d handles, want %d", what, len(tab.rows.slab.chunks), tab.rows.slab.used, want)
	}
	for _, ix := range tab.indexes {
		checkBuckets(s.t, tab, ix, what)
		if !ix.pinned && ix.holders == 0 {
			s.t.Fatalf("%s: arrangement %s outlived its last release", what, ix.name)
		}
	}
}

// checkEpochSlots holds a table's published epoch against its slab, slot for
// slot. It runs when every slot is committed: right after a publish or a
// rollback.
func checkEpochSlots(t testing.TB, tab *Table) {
	t.Helper()
	ep := tab.Snapshot()
	for h := int32(0); h < tab.rows.slab.Used(); h++ {
		got, _ := ep.rows.Get(h)
		if want := tab.rows.slab.At(h).Row; !sameRow(got, want) {
			t.Fatalf("epoch %d holds %s at handle %d, the slab %s", ep.Epoch(), got, h, want)
		}
	}
	if ep.Len() != tab.Len() {
		t.Fatalf("epoch %d has %d rows, the table %d", ep.Epoch(), ep.Len(), tab.Len())
	}
}

func runTableStore(t testing.TB, data []byte) {
	s := newTableStore(t)
	for ; len(data) >= 3; data = data[3:] {
		s.do(data[0], data[1], data[2])
	}
	s.publish(false)
}

// TestTableStoreModel runs the model with real key hashes and with every
// key hashing alike, where every probe of the key index and the index
// buckets compares keys.
func TestTableStoreModel(t *testing.T) {
	n := 6_000
	if testing.Short() {
		n /= 10
	}
	for _, name := range []string{"hashed", "colliding"} {
		t.Run(name, func(t *testing.T) {
			if name == "colliding" {
				colliding(t)
			}
			for seed := int64(0); seed < 4; seed++ {
				data := make([]byte, 3*n)
				rand.New(rand.NewSource(seed)).Read(data)
				runTableStore(t, data)
			}
		})
	}
}

func FuzzTableStore(f *testing.F) {
	f.Add([]byte{0x00, 1, 2, 0x0a, 0, 0, 0x04, 1, 0, 0x0c, 0, 0})
	f.Add([]byte{0x10, 3, 4, 0x07, 3, 0x80, 0x0e, 0, 0, 0x17, 4, 1, 0x0c, 0, 0, 0x0f, 0, 0})
	f.Add([]byte{0x00, 5, 0, 0x0b, 0, 0, 0x05, 5, 0, 0x00, 5, 1, 0x0c, 0, 0, 0x1a, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runTableStore(t, data) })
}
