package view

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/fixture"
	"ojv/internal/rel"
)

// The view-store model test: random insert / delete / commit / rollback /
// Materialize streams run against a Materialized and against a deliberately
// naive model — a map from view key to row, answered by full scans — and
// after every batch of operations every structure of the store must agree
// with the model, mid-changeset included: a row a changeset has deleted is
// still in its slot until the commit, and nothing may see it there. At every
// commit, rollback and Materialize the published epoch must equal the store
// slot for slot. The fixture's tables have an integer key, a composite
// (integer, string) key and a string key, so a table's part of a view key
// has every width the substring offsets must get right.

// storeFixture is the model test's view, A lo (B fo C) over all columns —
// the benchmark's multi-view shape.
type storeFixture struct {
	m    *Maintainer
	mv   *Materialized
	expr algebra.Expr
	// base is the view's contents as materialized from the base tables,
	// keyed like the model.
	base map[string]rel.Row
}

// Key domains of the three tables. Index 0 of every per-table choice below
// means "null-extended".
var (
	storeAKeys = []int64{1, 2, 3, math.MinInt64, 5, 6}
	storeBKeys = []struct {
		n int64
		s string
	}{{1, ""}, {1, "x"}, {2, "x"}, {2, strings.Repeat("long", 40)}}
	storeCKeys = []string{"", "c", "cc", "c\x00c", "\x03"}
)

func newStoreFixture(t testing.TB, opts Options) *storeFixture {
	t.Helper()
	cat := rel.NewCatalog()
	mk := func(name string, cols []rel.Column, key ...string) {
		if _, err := cat.CreateTable(name, cols, key...); err != nil {
			t.Fatal(err)
		}
	}
	intCol := func(n string) rel.Column { return rel.Column{Name: n, Kind: rel.KindInt} }
	strCol := func(n string) rel.Column { return rel.Column{Name: n, Kind: rel.KindString} }
	mk("A", []rel.Column{intCol("ak"), intCol("j")}, "ak")
	mk("B", []rel.Column{intCol("bk1"), strCol("bk2"), intCol("j")}, "bk1", "bk2")
	mk("C", []rel.Column{strCol("ck"), intCol("j")}, "ck")
	var a, b, c []rel.Row
	for i, k := range storeAKeys[:4] {
		a = append(a, rel.Row{rel.Int(k), rel.Int(int64(i % 3))})
	}
	for i, k := range storeBKeys[:3] {
		b = append(b, rel.Row{rel.Int(k.n), rel.Str(k.s), rel.Int(int64(i % 2))})
	}
	for i, k := range storeCKeys[:3] {
		c = append(c, rel.Row{rel.Str(k), rel.Int(int64(i % 2))})
	}
	for name, rows := range map[string][]rel.Row{"A": a, "B": b, "C": c} {
		if err := cat.Insert(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	expr := &algebra.Join{
		Kind: algebra.LeftOuterJoin,
		Left: &algebra.TableRef{Name: "A"},
		Right: &algebra.Join{Kind: algebra.FullOuterJoin, Left: &algebra.TableRef{Name: "B"}, Right: &algebra.TableRef{Name: "C"},
			Pred: algebra.Eq("B", "j", "C", "j")},
		Pred: algebra.Eq("A", "j", "B", "j"),
	}
	var out []algebra.ColRef
	for _, name := range []string{"A", "B", "C"} {
		for _, col := range cat.Table(name).Schema() {
			out = append(out, algebra.Col(name, col.Name))
		}
	}
	def, err := Define(cat, "model", expr, out)
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
		t.Fatal(err)
	}
	fx := &storeFixture{m: m, mv: m.Materialized(), expr: expr, base: make(map[string]rel.Row)}
	for _, r := range fx.mv.Rows() {
		fx.base[modelKey(r)] = r
	}
	if len(fx.base) != fx.mv.Len() || len(fx.base) < 4 {
		t.Fatalf("fixture view: %d distinct keys over %d rows", len(fx.base), fx.mv.Len())
	}
	return fx
}

// The output schema is A.ak, A.j, B.bk1, B.bk2, B.j, C.ck, C.j.
var storeKeyCols = [][]int{{0}, {2, 3}, {5}}

// modelKey is the view key by its definition: every table's key columns,
// NULL where the table is null-extended.
func modelKey(r rel.Row) string { return rel.EncodeRowCols(r, []int{0, 2, 3, 5}) }

// storeRow builds the output row choosing key a, b, c of each table (0:
// null-extended) with non-key columns v.
func storeRow(a, b, c int, v int64) rel.Row {
	r := make(rel.Row, 7)
	if a > 0 {
		r[0], r[1] = rel.Int(storeAKeys[a-1]), rel.Int(v)
	}
	if b > 0 {
		k := storeBKeys[b-1]
		r[2], r[3], r[4] = rel.Int(k.n), rel.Str(k.s), rel.Int(v)
	}
	if c > 0 {
		r[5], r[6] = rel.Str(storeCKeys[c-1]), rel.Int(v)
	}
	return r
}

// modelContains answers containsTuple by a full scan of the model: some row
// is non-null on, and key-equal to probe on, every table of mask.
func modelContains(model map[string]rel.Row, mask uint32, probe rel.Row) bool {
	for _, r := range model {
		ok := true
		for i, kc := range storeKeyCols {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			if r[kc[0]].IsNull() || rel.EncodeRowCols(r, kc) != rel.EncodeRowCols(probe, kc) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// orphanKey is the view key of the orphan row of the term with the given
// mask: the term tables' key values taken from row, NULL marks elsewhere.
func orphanKey(mv *Materialized, row rel.Row, mask uint32) string {
	return string(mv.appendKey(nil, row, mv.keyCols, mask))
}

// deleteNow removes the row under key k and frees its slot at once, as a
// changeset that deletes it and commits does.
func deleteNow(mv *Materialized, k string) bool {
	h, ok := mv.rows.Lookup(k)
	if ok {
		mv.rows.Remove(h)
		mv.rows.Commit(0, 0, nil, nil)
	}
	return ok
}

// sameRow reports whether a and b are the same stored row (or both none).
func sameRow(a, b rel.Row) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return &a[0] == &b[0]
}

// chainHandles walks one chain forward, checking its count; checkStore
// checks every chain's back links through rel.Chains.Check.
func chainHandles(t testing.TB, mv *Materialized, table int, tk string) []int32 {
	t.Helper()
	c := &mv.perTable[table]
	ch := mv.chain(table, tk)
	var hs []int32
	for h := ch.Head; h != rel.NoHandle; h = c.Next(h) {
		if len(hs) > mv.rows.Len() {
			t.Fatalf("table %d key %x: chain longer than the view (cycle)", table, tk)
		}
		hs = append(hs, h)
	}
	if int(ch.Count) != len(hs) {
		t.Fatalf("table %d key %x: count %d, chain has %d rows", table, tk, ch.Count, len(hs))
	}
	return hs
}

// storeHandles maps the key of every row linked in st to its handle.
func storeHandles(st *rel.Store) map[string]int32 {
	out := make(map[string]int32, st.Len())
	st.Handles(func(h int32) bool {
		out[st.At(h).Key] = h
		return true
	})
	return out
}

// checkChains runs rel.Chains.Check over table's chains, rebuilding the key
// a handle is filed under from its row's key columns.
func checkChains(mv *Materialized, table int, each func(tk string, h int32)) (int, error) {
	return mv.perTable[table].Check(func(h int32) string {
		return rel.EncodeRowCols(mv.rows.At(h).Row, mv.keyCols[table])
	}, each)
}

// freeSlots counts the slots of st that hold no row: the released ones.
func freeSlots(st *rel.Store) int {
	n := 0
	for h := int32(0); h < st.Used(); h++ {
		if st.At(h).Row == nil {
			n++
		}
	}
	return n
}

// checkStore compares every structure of the store with the model. dead
// holds the handles an open changeset has unlinked and not yet released.
func checkStore(t testing.TB, mv *Materialized, model map[string]rel.Row, dead map[int32]bool) {
	t.Helper()
	// rows and slab.
	if mv.rows.Len() != len(model) || mv.Len() != len(model) {
		t.Fatalf("store has %d rows, model %d", mv.rows.Len(), len(model))
	}
	if rows := mv.Rows(); len(rows) != len(model) {
		t.Fatalf("Rows() returns %d rows, model has %d", len(rows), len(model))
	} else {
		for _, r := range rows {
			if !sameRow(r, model[modelKey(r)]) {
				t.Fatalf("Rows() returns %s, which the model does not hold", r)
			}
		}
	}
	for k, want := range model {
		h, ok := mv.rows.Lookup(k)
		if !ok {
			t.Fatalf("model row %x missing from the store", k)
		}
		sr := mv.rows.At(h)
		if sr.Key != k || &sr.Row[0] != &want[0] {
			t.Fatalf("handle %d holds key %x row %s, want %x %s", h, sr.Key, sr.Row, k, want)
		}
		if got := mv.viewKey(want); got != k {
			t.Fatalf("viewKey = %x, model key %x", got, k)
		}
	}
	// Slots: every handle is live, free or dead, exactly once; a free slot
	// holds nothing and a dead one still holds its row, under a key that is
	// no longer (or, re-inserted, elsewhere) in rows.
	free := freeSlots(&mv.rows)
	if mv.rows.Len()+free+len(dead) != int(mv.rows.Used()) {
		t.Fatalf("%d live + %d free + %d unlinked handles, %d handed out", mv.rows.Len(), free, len(dead), mv.rows.Used())
	}
	for h := int32(0); h < mv.rows.Used(); h++ {
		sr := mv.rows.At(h)
		at, linked := mv.rows.Lookup(sr.Key)
		switch {
		case sr.Row == nil && dead[h]:
			t.Fatalf("unlinked slot %d was cleared before its changeset ended", h)
		case sr.Row == nil && sr.Key != "":
			t.Fatalf("free slot %d still holds %x", h, sr.Key)
		case sr.Row != nil && linked && at == h && dead[h]:
			t.Fatalf("unlinked slot %d is still in rows", h)
		case sr.Row != nil && !(linked && at == h) && !dead[h]:
			t.Fatalf("slot %d holds %x, which no open changeset unlinked", h, sr.Key)
		}
	}
	// patternCount against a scan.
	patterns := make(map[uint32]int)
	for _, r := range model {
		var p uint32
		for i, kc := range storeKeyCols {
			if !r[kc[0]].IsNull() {
				p |= 1 << uint(i)
			}
		}
		if got := mv.pattern(r); got != p {
			t.Fatalf("pattern(%s) = %b, want %b", r, got, p)
		}
		patterns[p]++
	}
	for p := uint32(0); p < 8; p++ {
		if mv.patternCount[p] != patterns[p] {
			t.Fatalf("patternCount[%03b] = %d, scan says %d", p, mv.patternCount[p], patterns[p])
		}
	}
	if (mv.perTable == nil) != mv.opts.DisableOrphanIndex {
		t.Fatalf("per-table chains kept: %v, with DisableOrphanIndex %v", mv.perTable != nil, mv.opts.DisableOrphanIndex)
	}
	if mv.perTable == nil {
		return
	}
	// Every table's chains are sound and grow their links with the slab,
	// whichever rows are null on the table.
	want := (int(mv.rows.Used()) + rel.SlabChunk - 1) / rel.SlabChunk
	for i := range mv.perTable {
		chunks, err := checkChains(mv, i, nil)
		if err != nil {
			t.Fatalf("table %d: %v", i, err)
		}
		if chunks != want {
			t.Fatalf("table %d: %d link chunks for %d handles, want %d", i, chunks, mv.rows.Used(), want)
		}
	}
	// Chains, membership both ways: the model's grouping by table key and
	// the store's chains name the same keys and the same rows.
	for i, kc := range storeKeyCols {
		groups := make(map[string]map[string]bool)
		for k, r := range model {
			if r[kc[0]].IsNull() {
				continue
			}
			tk := rel.EncodeRowCols(r, kc)
			if groups[tk] == nil {
				groups[tk] = make(map[string]bool)
			}
			groups[tk][k] = true
		}
		if mv.perTable[i].Len() != len(groups) {
			t.Fatalf("table %d: %d chains, model has %d keys", i, mv.perTable[i].Len(), len(groups))
		}
		for tk, want := range groups {
			hs := chainHandles(t, mv, i, tk)
			if len(hs) != len(want) {
				t.Fatalf("table %d key %x: chain of %d, model has %d rows", i, tk, len(hs), len(want))
			}
			for _, h := range hs {
				if mv.rows.At(h).Row == nil || dead[h] || !want[mv.rows.At(h).Key] {
					t.Fatalf("table %d key %x: chain holds row %d (%x), not in the model's group", i, tk, h, mv.rows.At(h).Key)
				}
			}
		}
	}
}

// checkContains compares containsTuple with the model's scan for one probe.
func checkContains(t testing.TB, mv *Materialized, model map[string]rel.Row, mask uint32, probe rel.Row) {
	t.Helper()
	key := orphanKey(mv, probe, mask)
	if got, want := mv.containsTuple(mask, key), modelContains(model, mask, probe); got != want {
		t.Fatalf("containsTuple(%03b, %s) = %v, scan says %v", mask, probe, got, want)
	}
}

// checkContainsAll probes every table subset — so every term of the view —
// with every key combination of the domains.
func checkContainsAll(t testing.TB, mv *Materialized, model map[string]rel.Row) {
	t.Helper()
	for mask := uint32(1); mask < 8; mask++ {
		for a := 1; a <= len(storeAKeys); a++ {
			for b := 1; b <= len(storeBKeys); b++ {
				for c := 1; c <= len(storeCKeys); c++ {
					checkContains(t, mv, model, mask, storeRow(a, b, c, 0))
				}
			}
		}
	}
}

// storeOps interprets an op-stream over the fixture and the model. Every
// mutation is staged through a changeset (opened on demand), so a commit
// also publishes an epoch, which must then equal the model.
type storeOps struct {
	t     testing.TB
	fx    *storeFixture
	model map[string]rel.Row
	// saved is the model as of the open changeset's Begin, and handles the
	// handle of every row then: a rollback must restore both.
	saved   map[string]rel.Row
	handles map[string]int32
	cs      *Changeset
	// unlinked holds the handles of the rows the open changeset deleted,
	// whose slots wait for its commit.
	unlinked map[int32]bool
	// peak is the most slots the store needed at once since it was last
	// rebuilt — live rows plus rows the open changeset had unlinked, whose
	// slots wait for its commit: with a free list that is reused, exactly the
	// handles it has handed out.
	peak int
	ops  int
}

func cloneModel(m map[string]rel.Row) map[string]rel.Row {
	out := make(map[string]rel.Row, len(m))
	for k, r := range m {
		out[k] = r
	}
	return out
}

func newStoreOps(t testing.TB, opts Options) *storeOps {
	fx := newStoreFixture(t, opts)
	fx.m.EnableSnapshots()
	s := &storeOps{t: t, fx: fx, model: cloneModel(fx.base), peak: len(fx.base)}
	s.checkEpoch()
	return s
}

func (s *storeOps) begin() {
	if s.cs == nil {
		s.cs = s.fx.m.Begin()
		s.unlinked = make(map[int32]bool)
		s.saved = cloneModel(s.model)
		s.handles = storeHandles(&s.fx.mv.rows)
	}
}

// dead lists the slots the open changeset has unlinked.
func (s *storeOps) dead() map[int32]bool { return s.unlinked }

func (s *storeOps) check() {
	s.t.Helper()
	checkStore(s.t, s.fx.mv, s.model, s.dead())
	if int(s.fx.mv.rows.Used()) != s.peak {
		s.t.Fatalf("store handed out %d handles, at most %d slots were ever needed at once: the free list is not reused", s.fx.mv.rows.Used(), s.peak)
	}
}

// checkEpoch holds the published epoch against the committed store, slot for
// slot. It runs only between changesets, when the store is all committed.
func (s *storeOps) checkEpoch() {
	s.t.Helper()
	mv := s.fx.mv
	ep := s.fx.m.members[0].current()
	for h := int32(0); h < mv.rows.Used(); h++ {
		got, _ := ep.rows.Get(h)
		if want := mv.rows.At(h).Row; !sameRow(got, want) {
			s.t.Fatalf("epoch %d holds %s at handle %d, the store %s", ep.seq, got, h, want)
		}
	}
	snap := s.fx.m.Snapshot()
	if snap.Len() != mv.Len() || len(snap.Rows()) != mv.Len() {
		s.t.Fatalf("epoch has Len %d and %d rows, the store %d", snap.Len(), len(snap.Rows()), mv.Len())
	}
}

func (s *storeOps) finish(commit bool) {
	s.t.Helper()
	if s.cs == nil {
		return
	}
	if commit {
		// A slot the changeset filled and emptied again is free after it, so
		// checkEpoch finds it nil in the epoch too.
		s.fx.m.CommitStaged(s.cs, &MaintStats{})
		snap := s.fx.m.Snapshot()
		want := make([]rel.Row, 0, len(s.model))
		for _, r := range s.model {
			want = append(want, r)
		}
		rel.SortRows(want)
		if got := snap.SortedRows(); fingerprintRows(got) != fingerprintRows(want) {
			s.t.Fatalf("published epoch has %d rows, model %d (or they differ)", len(got), len(want))
		}
		if got, want := snap.TermCardinality([]string{"A"}), s.fx.mv.TermCardinality([]string{"A"}); got != want {
			s.t.Fatalf("epoch term cardinality %d, stored %d", got, want)
		}
	} else {
		before := s.fx.m.Snapshot().Epoch()
		if err := s.fx.m.RollbackStaged(s.cs); err != nil {
			s.t.Fatal(err)
		}
		s.model = s.saved
		if got := s.fx.m.Snapshot().Epoch(); got != before {
			s.t.Fatalf("rollback published epoch %d over %d", got, before)
		}
		if s.fx.mv.rows.Len() != len(s.handles) {
			s.t.Fatalf("%d rows after rollback, %d at Begin", s.fx.mv.rows.Len(), len(s.handles))
		}
		for k, h := range s.handles {
			if got, ok := s.fx.mv.rows.Lookup(k); !ok || got != h {
				s.t.Fatalf("row %x was at handle %d at Begin and is at %d (present=%v) after rollback", k, h, got, ok)
			}
		}
	}
	s.cs, s.saved, s.handles, s.unlinked = nil, nil, nil, nil
	s.checkEpoch()
}

// run consumes the stream. Each op is an opcode byte and, for the row ops,
// one byte per table and one for the non-key columns.
func (s *storeOps) run(data []byte) {
	s.t.Helper()
	mv := s.fx.mv
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	for len(data) > 0 {
		s.ops++
		op := next() % 16
		switch {
		case op < 11: // insert (0–5), delete (6–9), probe (10)
			a, b, c := next()%(len(storeAKeys)+1), next()%(len(storeBKeys)+1), next()%(len(storeCKeys)+1)
			row := storeRow(a, b, c, int64(next()))
			k := modelKey(row)
			_, present := s.model[k]
			switch {
			case op < 6:
				s.begin()
				err := s.cs.insertRow("", mv.viewKey(row), row)
				if (err != nil) != present {
					s.t.Fatalf("insert of %s (present=%v): err %v", row, present, err)
				}
				if !present {
					s.model[k] = row
					if need := len(s.model) + len(s.dead()); need > s.peak {
						s.peak = need
					}
				}
			case op < 10:
				s.begin()
				if h, ok := mv.rows.Lookup(k); ok {
					s.unlinked[h] = true
				}
				got, ok, err := s.cs.deleteKey("", []byte(k))
				if err != nil || ok != present {
					s.t.Fatalf("delete of %x (present=%v): ok %v err %v", k, present, ok, err)
				}
				if present {
					if &got[0] != &s.model[k][0] {
						s.t.Fatalf("delete of %x returned %s, model holds %s", k, got, s.model[k])
					}
					delete(s.model, k)
				}
			default:
				if mask := uint32(next() % 8); mask != 0 {
					checkContains(s.t, mv, s.model, mask, row)
				}
			}
		case op < 13:
			s.finish(true)
		case op == 13:
			s.finish(false)
		case op == 14:
			// Materialize, one time in four from a definition that fails
			// half-way (every row twice: the second copy's first row is a
			// duplicate view key) and must change nothing.
			s.finish(next()%2 == 0)
			if next()%4 == 0 {
				def := s.fx.m.def
				def.Expr = &algebra.OuterUnion{Inputs: []algebra.Expr{s.fx.expr, s.fx.expr}}
				err := s.fx.m.Materialize()
				def.Expr = s.fx.expr
				if err == nil {
					s.t.Fatal("Materialize of a duplicating definition succeeded")
				}
			} else if next()%4 == 0 {
				// Rarely, so the stream spends its time on a store that has
				// churned rather than on a fresh one.
				if err := s.fx.m.Materialize(); err != nil {
					s.t.Fatal(err)
				}
				// The rebuild's rows are fresh slices, equal to the first
				// materialization's.
				s.model = make(map[string]rel.Row, len(s.fx.base))
				for _, r := range mv.Rows() {
					k := modelKey(r)
					if want, ok := s.fx.base[k]; !ok || rel.EncodeValues(r...) != rel.EncodeValues(want...) {
						s.t.Fatalf("Materialize produced %s, not a row of the first materialization", r)
					}
					s.model[k] = r
				}
				if len(s.model) != len(s.fx.base) {
					s.t.Fatalf("Materialize produced %d rows, want %d", len(s.model), len(s.fx.base))
				}
				s.peak = len(s.model)
				s.checkEpoch()
			}
		default:
			s.check()
		}
		if s.ops%64 == 0 {
			s.check()
		}
	}
	s.finish(true)
	s.check()
	checkContainsAll(s.t, mv, s.model)
}

// TestViewStoreModel is the ≥ 200 k-op random run, with the per-table index
// and on the scan fallback, and a shorter one with every key hashing alike
// (rel.CollideKeyHashes), where every probe of the key index and the chains
// compares keys.
func TestViewStoreModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		ops  int
	}{
		{"indexed", Options{}, 200_000},
		{"scan", Options{DisableOrphanIndex: true}, 40_000},
		{"colliding", Options{}, 40_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "colliding" {
				t.Cleanup(rel.CollideKeyHashes())
			}
			n := tc.ops
			if testing.Short() {
				n /= 10
			}
			data := make([]byte, 5*n)
			rand.New(rand.NewSource(22)).Read(data)
			s := newStoreOps(t, tc.opts)
			s.run(data)
			if s.ops < n {
				t.Fatalf("ran %d ops, want at least %d", s.ops, n)
			}
			if err := s.fx.m.Materialize(); err != nil {
				t.Fatal(err)
			}
			if err := Check(s.fx.m); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzViewStore runs fuzzer-chosen op-streams through the same interpreter.
func FuzzViewStore(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 7, 6, 1, 1, 1, 7, 13})
	f.Add([]byte{0, 2, 0, 0, 1, 0, 2, 3, 0, 1, 11, 6, 2, 0, 0, 1, 13, 15})
	f.Add([]byte{14, 1, 0, 0, 3, 4, 5, 9, 14, 0, 1, 0, 10, 1, 1, 1, 0, 7})
	f.Add([]byte{0, 0, 0, 0, 0, 11, 6, 0, 0, 0, 0, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		opts := Options{DisableOrphanIndex: data[0]&0x80 != 0}
		newStoreOps(t, opts).run(data)
	})
}

// TestViewEpochReaderDuringChangesets is the race test of publication by
// handle: while the model stream commits, rolls back and re-materializes, a
// reader keeps pinning the current epoch. Every epoch it sees is whole — as
// many rows as its count says, none of them a freed slot — and epochs never
// go backwards; under -race the detector additionally proves that nothing a
// published epoch can reach is written afterwards, the in-place edits of the
// next transaction included.
func TestViewEpochReaderDuringChangesets(t *testing.T) {
	s := newStoreOps(t, Options{})
	stop, done := make(chan struct{}), make(chan struct{})
	defer func() {
		close(stop)
		<-done
	}()
	go func() {
		defer close(done)
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := s.fx.m.Snapshot()
			e := snap.Epoch()
			if e < last {
				t.Errorf("epoch went backwards: %d after %d", e, last)
				return
			}
			last = e
			rows := snap.Rows()
			if len(rows) != snap.Len() {
				t.Errorf("epoch %d: %d rows, Len %d", last, len(rows), snap.Len())
				return
			}
			for _, r := range rows {
				if len(r) != len(snap.Schema()) {
					t.Errorf("epoch %d holds a row of %d columns", last, len(r))
					return
				}
			}
		}
	}()
	n := 20_000
	if testing.Short() {
		n /= 10
	}
	data := make([]byte, 5*n)
	rand.New(rand.NewSource(24)).Read(data)
	s.run(data)
}

// TestViewStoreHotKey pins the per-table index at O(1) per row whatever the
// bucket size: one A tuple carried by 20 000 view rows, which are inserted,
// deleted oldest-first — the far end of a chain that is pushed at the head —
// and inserted again.
func TestViewStoreHotKey(t *testing.T) {
	const n = 20_000
	fx := newStoreFixture(t, Options{})
	mv := fx.mv
	model := cloneModel(fx.base)
	rows := make([]rel.Row, n)
	for i := range rows {
		rows[i] = storeRow(5, 0, 0, 0) // A key 5: not in the base tables
		rows[i][2], rows[i][3], rows[i][4] = rel.Int(int64(1000+i)), rel.Str(fmt.Sprint("b", i%7)), rel.Int(0)
	}
	start, keys := linkOps(mv), mv.perTable[0].Len()
	insertAll := func() {
		for _, r := range rows {
			k := mv.viewKey(r)
			mv.rows.Fill(k, r)
			model[k] = r
		}
	}
	insertAll()
	checkStore(t, mv, model, nil)
	hot := rel.EncodeValues(rel.Int(5))
	if c := mv.chain(0, hot); int(c.Count) != n {
		t.Fatalf("hot chain holds %d rows, want %d", c.Count, n)
	}
	for _, r := range rows {
		k := mv.viewKey(r)
		if !deleteNow(mv, k) {
			t.Fatalf("row %s vanished", r)
		}
		delete(model, k)
	}
	checkStore(t, mv, model, nil)
	if mv.perTable[0].Len() != keys {
		t.Fatal("the emptied hot chain kept its bucket")
	}
	insertAll()
	checkStore(t, mv, model, nil)
	if got, want := int(mv.rows.Used()), len(model); got != want {
		t.Fatalf("re-insert handed out new handles: %d for %d rows", got, want)
	}
	// Two tables per row, two link operations per table and mutation.
	if ops := linkOps(mv) - start; ops > 3*n*4 {
		t.Fatalf("%d link operations for %d mutations on a hot key: not O(1) per row", ops, 3*n)
	}
	// A probe naming the hot tuple and a cold one walks the cold chain.
	start = mv.walked
	for _, r := range rows {
		if !mv.containsTuple(0b011, mv.viewKey(r)) {
			t.Fatalf("row %s not contained under its own keys", r)
		}
	}
	if ops := mv.walked - start; ops > n {
		t.Fatalf("%d links followed by %d probes: containsTuple walked the hot chain", ops, n)
	}
}

// linkOps returns the links the view's per-table index has written.
func linkOps(mv *Materialized) int {
	n := 0
	for i := range mv.perTable {
		n += mv.perTable[i].LinkOps()
	}
	return n
}

// TestSkipEncodedMatchesEncoding keeps the store's key walker in step with
// rel's encoding: for every kind, skipping a value lands where the encoder
// stopped.
func TestSkipEncodedMatchesEncoding(t *testing.T) {
	vals := []rel.Value{
		rel.Null, rel.Int(0), rel.Int(math.MinInt64), rel.Float(1.5), rel.Float(2), rel.Float(math.NaN()),
		rel.Str(""), rel.Str("a"), rel.Str(strings.Repeat("x", 70_000)), rel.Bool(true), rel.Date(19000),
	}
	var buf []byte
	var ends []int
	for _, v := range vals {
		buf = rel.AppendEncoded(buf, v)
		ends = append(ends, len(buf))
	}
	key := string(buf)
	off := int32(0)
	for i, end := range ends {
		if off = skipEncoded(key, off); int(off) != end {
			t.Fatalf("value %d (%s): skipped to %d, encoder stopped at %d", i, vals[i].Kind(), off, end)
		}
	}
}

// TestFailedMaterializeLeavesNothingToPublish: a rebuild that fails half-way
// must leave no trace — the statement after it publishes the keys it
// touched, not the view. (The staging copy used to share the live view's
// dirty-key set, so a failed rebuild made the next commit path-copy the
// whole trie.)
func TestFailedMaterializeLeavesNothingToPublish(t *testing.T) {
	build := func() (*rel.Catalog, *Maintainer) {
		cat, err := fixture.RSTU(fixture.RSTUOptions{Rows: 600, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		def, err := Define(cat, "v1", fixture.V1Expr(false), fixture.V1Output(cat))
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
		m.EnableSnapshots()
		return cat, m
	}
	// One 1-row statement, measured in bytes allocated.
	statement := func(cat *rel.Catalog, m *Maintainer) uint64 {
		rows := insertRowsFor(cat, "R", 1, 77, false)
		if err := cat.Insert("R", rows); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := m.OnInsert("R", rows); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	catA, a := build()
	catB, b := build()
	before := fingerprint(a)
	good := a.def.Expr
	a.def.Expr = &algebra.OuterUnion{Inputs: []algebra.Expr{good, good}}
	err := a.Materialize()
	a.def.Expr = good
	if err == nil || !strings.Contains(err.Error(), "duplicate view key") {
		t.Fatalf("Materialize of a duplicating definition: %v", err)
	}
	if fingerprint(a) != before {
		t.Fatal("failed Materialize changed the stored view")
	}
	failed, clean := statement(catA, a), statement(catB, b)
	if a.Materialized().Len() < 1000 {
		t.Fatalf("view of %d rows is too small to tell O(1) from O(view)", a.Materialized().Len())
	}
	if failed > 2*clean {
		t.Fatalf("statement after a failed Materialize allocated %d B, %d B on an untouched twin", failed, clean)
	}
	for _, m := range []*Maintainer{a, b} {
		if err := Check(m); err != nil {
			t.Fatal(err)
		}
		if got := fingerprintRows(m.Snapshot().SortedRows()); got != fingerprintRows(m.Materialized().SortedRows()) {
			t.Fatal("published epoch diverged from the stored view")
		}
	}
}

// indexShape summarises table i's chains for fingerprints: how many keys,
// how many rows under them, and the sorted (key, count) pairs — chain
// membership, which a rollback must restore, without chain order or handle
// numbers, which it need not.
func indexShape(mv *Materialized, table int) string {
	counts := make(map[string]int)
	if _, err := checkChains(mv, table, func(tk string, _ int32) { counts[tk]++ }); err != nil {
		return err.Error()
	}
	var keys []string
	total := 0
	for tk, n := range counts {
		keys = append(keys, fmt.Sprintf("%x=%d", tk, n))
		total += n
	}
	sort.Strings(keys)
	return fmt.Sprintf("%d keys %d entries [%s]", len(keys), total, strings.Join(keys, " "))
}
