package rel

import (
	"math/rand"
	"sort"
	"testing"
)

// The row-vector model test: random set / clear streams, cut into
// transactions, run against a VecTx and against a plain map from handle to
// row. Every published version is compared with the model, and the last
// 64 versions stay pinned with the rows they were published with: after
// every later transaction each must read exactly as it did, which is what
// "a node is edited in place only when this transaction made it" means to a
// reader. Handles are mostly small, so transactions revisit leaves, and now
// and then far out, so the tree grows by a level under pinned versions.

// vecPin is one version with what it held when it was published: the live
// handles in order, and their rows.
type vecPin struct {
	v       *RowVec
	handles []int32
	rows    []Row
}

func pinVec(v *RowVec, model map[int32]Row) vecPin {
	p := vecPin{v: v}
	for h := range model {
		p.handles = append(p.handles, h)
	}
	sort.Slice(p.handles, func(i, j int) bool { return p.handles[i] < p.handles[j] })
	for _, h := range p.handles {
		p.rows = append(p.rows, model[h])
	}
	return p
}

// check reads the version both ways: the walk yields exactly the pinned rows
// in handle order, and each handle reads its row.
func (p vecPin) check(t testing.TB, what string) {
	t.Helper()
	got := p.v.AppendRows(nil)
	if len(got) != len(p.rows) || p.v.count != len(p.rows) {
		t.Fatalf("%s: %d rows walked, count %d, model has %d", what, len(got), p.v.count, len(p.rows))
	}
	for i, h := range p.handles {
		if !sameRow(got[i], p.rows[i]) || !sameRow(p.v.Get(h), p.rows[i]) {
			t.Fatalf("%s: handle %d walks as %s and reads %s, model has %s", what, h, got[i], p.v.Get(h), p.rows[i])
		}
	}
}

// runVecModel interprets data: per op a control byte and a two-byte handle.
func runVecModel(t testing.TB, data []byte) {
	t.Helper()
	model := make(map[int32]Row)
	tx := new(RowVec).Edit()
	var pins []vecPin
	serial := int64(0)
	publish := func() {
		cur := pinVec(tx.Publish(), model)
		cur.check(t, "new version")
		for _, p := range pins {
			p.check(t, "pinned version")
		}
		if pins = append(pins, cur); len(pins) > 64 {
			pins = pins[1:]
		}
		tx = cur.v.Edit()
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
		switch {
		case op>>4 < 9:
			serial++
			model[h] = Row{Int(serial)}
			tx.Set(h, model[h])
		case op>>4 < 14:
			delete(model, h)
			tx.Set(h, nil)
		default:
			publish()
		}
		if got := txGet(tx, h); !sameRow(got, model[h]) || tx.count != len(model) {
			t.Fatalf("inside the transaction handle %d reads %s and the count is %d; model has %s of %d", h, got, tx.count, model[h], len(model))
		}
	}
	publish()
	last := pins[len(pins)-1].v
	for h := int32(0); h < 1<<11; h++ {
		if got := last.Get(h); !sameRow(got, model[h]) {
			t.Fatalf("handle %d reads %s, model has %s", h, got, model[h])
		}
	}
	if got := last.Get(1<<30 + 5); got != nil {
		t.Fatalf("a handle past the tree reads %s", got)
	}
}

// txGet reads a handle through an open transaction's root.
func txGet(tx *VecTx, h int32) Row {
	return (&RowVec{root: tx.root, height: tx.height}).Get(h)
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

// TestRowVecLocality pins what a publish costs in copied nodes: one handle
// copies its root-to-leaf path and nothing else, a second write to it inside
// the same transaction copies nothing, and a run of consecutive handles —
// what the slab hands out to a bulk insert — copies each leaf once, so about
// n/width leaves, the thin levels above them and one partly covered node per
// level at either end.
func TestRowVecLocality(t *testing.T) {
	const live = 32_000
	row := Row{Int(1)}
	tx := new(RowVec).Edit()
	for h := int32(0); h < live; h++ {
		tx.Set(h, row)
	}
	base := tx.Publish()
	depth := base.height + 1
	if base.count != live || vecSpan(base.height) < live || vecSpan(base.height-1) >= live {
		t.Fatalf("%d rows in a tree of height %d spanning %d handles", base.count, base.height, vecSpan(base.height))
	}

	tx = base.Edit()
	tx.Set(12_345, Row{Int(2)})
	if tx.copied != depth {
		t.Fatalf("one handle copied %d nodes, the path has %d", tx.copied, depth)
	}
	tx.Set(12_345, nil)
	tx.Set(12_346, row)
	if tx.copied != depth {
		t.Fatalf("writes to a leaf this transaction owns copied %d more nodes", tx.copied-depth)
	}
	next := tx.Publish()
	if got := base.Get(12_345); !sameRow(got, row) {
		t.Fatalf("the transaction wrote through to its base: handle reads %s", got)
	}
	if next.Get(12_345) != nil || next.count != live-1 {
		t.Fatalf("cleared handle reads %s, count %d", next.Get(12_345), next.count)
	}

	const n = 1000
	for _, start := range []int32{0, 5, 4096 - 7, live - 3, live + 1000} {
		tx = next.Edit()
		for h := start; h < start+n; h++ {
			tx.Set(h, row)
		}
		// ⌈n/w⌉+1 leaves, ⌈n/w²⌉+1 nodes above them, and so on up: a geometric
		// series under n/(w−1), plus two ends per level.
		if bound := n/(vecWidth-1) + 2*depth; tx.copied > bound {
			t.Fatalf("%d consecutive handles from %d copied %d nodes, bound %d", n, start, tx.copied, bound)
		}
		if tx.copied < n/vecWidth {
			t.Fatalf("%d consecutive handles copied only %d nodes: fewer than their leaves", n, tx.copied)
		}
	}
}
