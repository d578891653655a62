package rel

// A persistent vector: the representation behind a table epoch and a view
// epoch (a Vec of rows, RowVec), and behind a view family's membership
// words (a Vec of uint64).
//
// The vector is indexed by slab handle (slab.go) and holds the value that is
// committed at each handle, or nothing for a free slot. It is a radix tree
// of fixed fan-out: a leaf holds vecWidth slots and a bitmap of the ones in
// use, an interior node vecWidth children, and the handle's bit fields, most
// significant first, name the path — no hashing, no key compares, no
// collision buckets, and a subtree that empties stays (the slab does not
// shrink either). Nodes are created only by Set, never dropped, so two
// vectors that see the same Set and Clear calls in the same order from the
// same start have the same shape, leaf for leaf (AppendMarked).
//
// A root reachable from a published version is never written. Deriving the
// next version opens a VecTx, whose owner token marks the nodes it creates:
// those it edits in place, any other node it copies on first touch. Publish
// drops the token, so a node is only ever written by the transaction that
// created it, before anyone can read it. The slab hands out fresh and
// recycled handles in runs, so the handles of one commit share leaves and a
// publish copies each touched leaf once.
//
// Leaves and interior nodes are two types, and Go has no untagged union, so
// the interior type carries both kinds of child: kids at height > 1 and, at
// height 1 only, a separately allocated array of leaves. That is one extra
// 128-byte object per copied height-1 node; the alternatives without unsafe
// (an interface or both arrays inline) cost 128 bytes in every interior node.

const (
	// vecBits fixes the fan-out at 16. Measured against 32 on the benchmark's
	// alloc_b_per_row: a 1-row publish copies one leaf and its path, and the
	// narrower leaf (a 416-byte allocation against 896) more than pays for the extra level,
	// while a bulk publish copies about the same bytes at either width.
	// A leaf's used bitmap is a uint64, so vecBits is at most 6.
	vecBits  = 4
	vecWidth = 1 << vecBits
	vecMask  = vecWidth - 1
)

// vecOwner is the identity of one VecTx. It has a size so that distinct
// tokens have distinct addresses.
type vecOwner struct{ _ byte }

type vecLeaf[T any] struct {
	owner *vecOwner
	// used has bit i set when slot i holds a value.
	used  uint64
	slots [vecWidth]T
}

type vecNode[T any] struct {
	owner  *vecOwner
	kids   [vecWidth]*vecNode[T]
	leaves *[vecWidth]*vecLeaf[T]
}

// Vec is one immutable version of the vector. The zero value is empty.
// All methods are read-only and safe for unsynchronized concurrent use.
type Vec[T any] struct {
	root *vecNode[T]
	// height counts the interior levels above the leaves (at least one once
	// anything is set): the tree spans vecWidth^(height+1) handles.
	height int
	// count is the number of slots in use.
	count int
}

// RowVec is the vector of rows: a table's or a view's epoch.
type RowVec = Vec[Row]

// vecSpan returns the number of handles a tree of the given height addresses.
func vecSpan(height int) int64 { return 1 << (uint(height+1) * vecBits) }

// Len returns the number of slots in use.
func (v *Vec[T]) Len() int { return v.count }

// Append appends the value of every slot in use, in handle order.
func (v *Vec[T]) Append(dst []T) []T {
	return v.root.appendAll(dst, v.height)
}

func (n *vecNode[T]) appendAll(dst []T, height int) []T {
	if n == nil {
		return dst
	}
	if height > 1 {
		for _, k := range n.kids {
			dst = k.appendAll(dst, height-1)
		}
		return dst
	}
	for _, leaf := range n.leaves {
		if leaf == nil {
			continue
		}
		for i := range leaf.slots {
			if leaf.used&(1<<uint(i)) != 0 {
				dst = append(dst, leaf.slots[i])
			}
		}
	}
	return dst
}

// AppendMarked appends, in handle order, the value of every slot of v in
// use whose word in marks carries bit, a non-zero mask. marks must have
// seen the same Set and Clear calls as v, so that the two have the same
// handles and the same shape: the walk reads them leaf by leaf in
// lockstep, and never descends into a subtree of v whose words are all
// absent. A free slot's word is zero (Clear zeroes it), so a word that
// carries bit is a slot in use.
func AppendMarked[T any](v *Vec[T], marks *Vec[uint64], bit uint64, dst []T) []T {
	if v.height != marks.height {
		panic("rel: AppendMarked over vectors of different shapes")
	}
	return appendMarked(v.root, marks.root, v.height, bit, dst)
}

func appendMarked[T any](n *vecNode[T], m *vecNode[uint64], height int, bit uint64, dst []T) []T {
	if n == nil || m == nil {
		return dst
	}
	if height > 1 {
		for i, k := range n.kids {
			dst = appendMarked(k, m.kids[i], height-1, bit, dst)
		}
		return dst
	}
	for i, leaf := range n.leaves {
		words := m.leaves[i]
		if leaf == nil || words == nil {
			continue
		}
		for j := range leaf.slots {
			if words.slots[j]&bit != 0 {
				dst = append(dst, leaf.slots[j])
			}
		}
	}
	return dst
}

// Get returns the value at handle h and whether the slot is in use: the
// point read that holds an epoch to its container slot for slot. Readers
// scan.
func (v *Vec[T]) Get(h int32) (T, bool) {
	var zero T
	if v.root == nil || int64(h) >= vecSpan(v.height) {
		return zero, false
	}
	n := v.root
	for height := v.height; height > 1; height-- {
		if n = n.kids[h>>(uint(height)*vecBits)&vecMask]; n == nil {
			return zero, false
		}
	}
	leaf := n.leaves[h>>vecBits&vecMask]
	if leaf == nil || leaf.used&(1<<uint(h&vecMask)) == 0 {
		return zero, false
	}
	return leaf.slots[h&vecMask], true
}

// VecTx is a single-writer transaction deriving one version from another.
type VecTx[T any] struct {
	owner  *vecOwner
	root   *vecNode[T]
	height int
	count  int
	// copied counts the nodes the transaction copied or created.
	copied int
}

// Edit opens a transaction over v; v itself never changes.
func (v *Vec[T]) Edit() *VecTx[T] {
	t := &VecTx[T]{owner: new(vecOwner), root: v.root, height: v.height, count: v.count}
	if t.height == 0 {
		t.height = 1
	}
	return t
}

// Publish ends the transaction: with the owner token dropped no node under
// the returned version is ever written again.
func (t *VecTx[T]) Publish() *Vec[T] {
	v := &Vec[T]{root: t.root, height: t.height, count: t.count}
	t.owner = nil
	return v
}

// Copied returns the number of nodes the transaction has copied or
// created: what deriving its version costs beyond the version it edits.
func (t *VecTx[T]) Copied() int { return t.copied }

// Set stores x at handle h, putting the slot in use.
func (t *VecTx[T]) Set(h int32, x T) {
	for int64(h) >= vecSpan(t.height) {
		if t.root != nil {
			root := &vecNode[T]{owner: t.owner}
			root.kids[0] = t.root
			t.root = root
			t.copied++
		}
		t.height++
	}
	t.root = t.setIn(t.root, t.height, h, x, true)
}

// Clear frees the slot at handle h.
func (t *VecTx[T]) Clear(h int32) {
	if int64(h) >= vecSpan(t.height) {
		return // beyond the tree: already free
	}
	var zero T
	t.root = t.setIn(t.root, t.height, h, zero, false)
}

// setIn stores x below n, a node of the given height, in use or freed, and
// returns the node standing in n's place. Freeing a slot under a subtree
// that does not exist creates nothing.
func (t *VecTx[T]) setIn(n *vecNode[T], height int, h int32, x T, use bool) *vecNode[T] {
	if n == nil && !use {
		return nil
	}
	i := h >> (uint(height) * vecBits) & vecMask
	if height == 1 && !use && n.leaves[i] == nil {
		return n
	}
	n = t.own(n, height)
	if height > 1 {
		n.kids[i] = t.setIn(n.kids[i], height-1, h, x, use)
		return n
	}
	leaf := n.leaves[i]
	switch {
	case leaf == nil:
		leaf = &vecLeaf[T]{owner: t.owner}
		t.copied++
	case leaf.owner != t.owner:
		c := *leaf
		c.owner = t.owner
		leaf = &c
		t.copied++
	}
	n.leaves[i] = leaf
	bit := uint64(1) << uint(h&vecMask)
	switch {
	case leaf.used&bit == 0 && use:
		t.count++
		leaf.used |= bit
	case leaf.used&bit != 0 && !use:
		t.count--
		leaf.used &^= bit
	}
	leaf.slots[h&vecMask] = x
	return n
}

// own returns n itself when this transaction created it, and otherwise a
// copy it may edit (a fresh node for a nil n).
func (t *VecTx[T]) own(n *vecNode[T], height int) *vecNode[T] {
	if n != nil && n.owner == t.owner {
		return n
	}
	t.copied++
	c := &vecNode[T]{owner: t.owner}
	if n != nil {
		c.kids = n.kids
	}
	if height == 1 {
		c.leaves = new([vecWidth]*vecLeaf[T])
		if n != nil {
			*c.leaves = *n.leaves
		}
	}
	return c
}
