package rel

import (
	"math/rand"
	"sort"
	"testing"
)

// The vector model test: random set / clear streams, cut into transactions,
// run against two vectors side by side — a RowVec and a Vec of membership
// words, given the same calls as a view family gives its two — and against
// plain maps from handle to row and to word. Every published pair is
// compared with the model, each vector on its own and the rows read through
// the words with AppendMarked, and the last 64 pairs stay pinned with what
// they were published with: after every later transaction each must read
// exactly as it did, which is what "a node is edited in place only when this
// transaction made it" means to a reader. Handles are mostly small, so
// transactions revisit leaves, and now and then far out, so the tree grows
// by a level under pinned versions. Words are four random bits, zero one
// time in sixteen: a zero word is a slot in use like any other.

// vecPin is one version with what it held when it was published: the live
// handles in order, and their values.
type vecPin[T any] struct {
	v       *Vec[T]
	handles []int32
	vals    []T
}

func pinVec[T any](v *Vec[T], model map[int32]T) vecPin[T] {
	p := vecPin[T]{v: v}
	for h := range model {
		p.handles = append(p.handles, h)
	}
	sort.Slice(p.handles, func(i, j int) bool { return p.handles[i] < p.handles[j] })
	for _, h := range p.handles {
		p.vals = append(p.vals, model[h])
	}
	return p
}

// check reads the version both ways: the walk yields exactly the pinned
// values in handle order, and each handle reads its value.
func (p vecPin[T]) check(t testing.TB, what string, same func(a, b T) bool) {
	t.Helper()
	got := p.v.Append(nil)
	if len(got) != len(p.vals) || p.v.Len() != len(p.vals) {
		t.Fatalf("%s: %d values walked, count %d, model has %d", what, len(got), p.v.Len(), len(p.vals))
	}
	for i, h := range p.handles {
		at, ok := p.v.Get(h)
		if !same(got[i], p.vals[i]) || !ok || !same(at, p.vals[i]) {
			t.Fatalf("%s: handle %d walks as %v and reads %v (%v), model has %v", what, h, got[i], at, ok, p.vals[i])
		}
	}
}

// pairPin is a row version and the word version published with it.
type pairPin struct {
	rows  vecPin[Row]
	words vecPin[uint64]
}

func (p pairPin) check(t testing.TB, what string) {
	t.Helper()
	p.rows.check(t, what+" rows", sameRow)
	p.words.check(t, what+" words", func(a, b uint64) bool { return a == b })
	for bit := uint64(1); bit < 1<<4; bit <<= 1 {
		var want []Row
		for i, w := range p.words.vals {
			if w&bit != 0 {
				want = append(want, p.rows.vals[i])
			}
		}
		got := AppendMarked(p.rows.v, p.words.v, bit, nil)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows marked %b, model has %d", what, len(got), bit, len(want))
		}
		for i := range want {
			if !sameRow(got[i], want[i]) {
				t.Fatalf("%s: marked row %d of bit %b is %s, model has %s", what, i, bit, got[i], want[i])
			}
		}
	}
}

// runVecModel interprets data: per op a control byte and a two-byte handle.
func runVecModel(t testing.TB, data []byte) {
	t.Helper()
	rowModel, wordModel := make(map[int32]Row), make(map[int32]uint64)
	rows, words := new(RowVec).Edit(), new(Vec[uint64]).Edit()
	var pins []pairPin
	serial := int64(0)
	publish := func() {
		cur := pairPin{pinVec(rows.Publish(), rowModel), pinVec(words.Publish(), wordModel)}
		cur.check(t, "new version")
		for _, p := range pins {
			p.check(t, "pinned version")
		}
		if pins = append(pins, cur); len(pins) > 64 {
			pins = pins[1:]
		}
		rows, words = cur.rows.v.Edit(), cur.words.v.Edit()
	}
	for len(data) >= 3 {
		op, h := data[0], int32(data[1])|int32(data[2])<<8
		data = data[3:]
		switch {
		case op&0x0f == 0x0f:
			h <<= 3 // up to 2^19: two levels above the small handles
		case op&0x0f >= 0x08:
			h &= 0x3ff
		default:
			h &= 0x3f
		}
		prev, prevIn := rowModel[h]
		prevWord := wordModel[h]
		var old Row
		var oldWord uint64
		var had, hadWord bool
		switch {
		case op>>4 < 9:
			serial++
			rowModel[h], wordModel[h] = Row{Int(serial)}, uint64(serial)*0x9e3779b97f4a7c15>>60
			old, had = rows.Set(h, rowModel[h])
			oldWord, hadWord = words.Set(h, wordModel[h])
		case op>>4 < 14:
			delete(rowModel, h)
			delete(wordModel, h)
			old, had = rows.Clear(h)
			oldWord, hadWord = words.Clear(h)
		default:
			publish()
			old, had, oldWord, hadWord = prev, prevIn, prevWord, prevIn
		}
		if had != prevIn || !sameRow(old, prev) || hadWord != prevIn || oldWord != prevWord {
			t.Fatalf("handle %d: the write replaced %s (%v) and word %d (%v); model had %s (%v) and %d", h, old, had, oldWord, hadWord, prev, prevIn, prevWord)
		}
		got, ok := txGet(rows, h)
		want, in := rowModel[h]
		if ok != in || !sameRow(got, want) || rows.count != len(rowModel) {
			t.Fatalf("inside the transaction handle %d reads %s (%v) and the count is %d; model has %s of %d", h, got, ok, rows.count, want, len(rowModel))
		}
		if w, ok := txGet(words, h); ok != in || w != wordModel[h] || words.count != len(wordModel) {
			t.Fatalf("inside the transaction handle %d reads word %d (%v) and the count is %d; model has %d of %d", h, w, ok, words.count, wordModel[h], len(wordModel))
		}
	}
	publish()
	last := pins[len(pins)-1]
	for h := int32(0); h < 1<<11; h++ {
		got, ok := last.rows.v.Get(h)
		want, in := rowModel[h]
		if ok != in || !sameRow(got, want) {
			t.Fatalf("handle %d reads %s (%v), model has %s", h, got, ok, want)
		}
		if w, ok := last.words.v.Get(h); ok != in || w != wordModel[h] {
			t.Fatalf("handle %d reads word %d (%v), model has %d", h, w, ok, wordModel[h])
		}
	}
	if got, ok := last.rows.v.Get(1<<30 + 5); ok || got != nil {
		t.Fatalf("a handle past the tree reads %s", got)
	}
}

// txGet reads a handle through an open transaction's root.
func txGet[T any](tx *VecTx[T], h int32) (T, bool) {
	return (&Vec[T]{root: tx.root, height: tx.height}).Get(h)
}

// sameRow reports whether a and b are the same stored row (or both none).
func sameRow(a, b Row) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return &a[0] == &b[0]
}

func TestRowVecModel(t *testing.T) {
	n := 3_000
	if testing.Short() {
		n /= 10
	}
	data := make([]byte, 3*n)
	rand.New(rand.NewSource(24)).Read(data)
	runVecModel(t, data)
}

func FuzzRowVec(f *testing.F) {
	f.Add([]byte{0x00, 1, 0, 0xe0, 0, 0, 0x90, 1, 0, 0xe0, 0, 0})
	f.Add([]byte{0x0f, 0xff, 0xff, 0xe0, 0, 0, 0x08, 0xff, 0x03, 0x9f, 0xff, 0xff, 0xe0, 0, 0})
	f.Add([]byte{0x00, 5, 0, 0x90, 5, 0, 0xf0, 0, 0, 0x00, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runVecModel(t, data) })
}

// TestRowVecLocality pins what a publish costs in copied nodes, for rows and
// for membership words alike: one handle copies its root-to-leaf path and
// nothing else, a second write to it inside the same transaction copies
// nothing, and a run of consecutive handles — what the slab hands out to a
// bulk insert — copies each leaf once, so about n/width leaves, the thin
// levels above them and one partly covered node per level at either end.
func TestRowVecLocality(t *testing.T) {
	t.Run("rows", func(t *testing.T) {
		vecLocality(t, Row{Int(1)}, Row{Int(2)}, sameRow)
	})
	t.Run("words", func(t *testing.T) {
		vecLocality(t, uint64(1), uint64(2), func(a, b uint64) bool { return a == b })
	})
}

func vecLocality[T any](t *testing.T, val, other T, same func(a, b T) bool) {
	const live = 32_000
	tx := new(Vec[T]).Edit()
	for h := int32(0); h < live; h++ {
		tx.Set(h, val)
	}
	base := tx.Publish()
	depth := base.height + 1
	if base.count != live || vecSpan(base.height) < live || vecSpan(base.height-1) >= live {
		t.Fatalf("%d values in a tree of height %d spanning %d handles", base.count, base.height, vecSpan(base.height))
	}

	tx = base.Edit()
	tx.Set(12_345, other)
	if tx.Copied() != depth {
		t.Fatalf("one handle copied %d nodes, the path has %d", tx.Copied(), depth)
	}
	tx.Clear(12_345)
	tx.Set(12_346, val)
	if tx.Copied() != depth {
		t.Fatalf("writes to a leaf this transaction owns copied %d more nodes", tx.Copied()-depth)
	}
	next := tx.Publish()
	if got, ok := base.Get(12_345); !ok || !same(got, val) {
		t.Fatalf("the transaction wrote through to its base: handle reads %v (%v)", got, ok)
	}
	if _, ok := next.Get(12_345); ok || next.count != live-1 {
		t.Fatalf("cleared handle is in use, count %d", next.count)
	}

	const n = 1000
	for _, start := range []int32{0, 5, 4096 - 7, live - 3, live + 1000} {
		tx = next.Edit()
		for h := start; h < start+n; h++ {
			tx.Set(h, val)
		}
		// ⌈n/w⌉+1 leaves, ⌈n/w²⌉+1 nodes above them, and so on up: a geometric
		// series under n/(w−1), plus two ends per level.
		if bound := n/(vecWidth-1) + 2*depth; tx.Copied() > bound {
			t.Fatalf("%d consecutive handles from %d copied %d nodes, bound %d", n, start, tx.Copied(), bound)
		}
		if tx.Copied() < n/vecWidth {
			t.Fatalf("%d consecutive handles copied only %d nodes: fewer than their leaves", n, tx.Copied())
		}
	}
}
