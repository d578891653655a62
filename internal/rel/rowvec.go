package rel

// A persistent row vector: the representation behind a table epoch and a
// view epoch.
//
// The vector is indexed by slab handle (slab.go) and holds the row that is
// committed at each handle, nil for a free slot. It is a radix tree of
// fixed fan-out: a leaf holds vecWidth rows, an interior node vecWidth
// children, and the handle's bit fields, most significant first, name the
// path — no hashing, no key compares, no collision buckets, and a subtree
// that empties stays (the slab does not shrink either).
//
// A root reachable from a published epoch is never written. Deriving the
// next epoch opens a VecTx, whose owner token marks the nodes it creates:
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
	vecBits  = 4
	vecWidth = 1 << vecBits
	vecMask  = vecWidth - 1
)

// vecOwner is the identity of one VecTx. It has a size so that distinct
// tokens have distinct addresses.
type vecOwner struct{ _ byte }

type vecLeaf struct {
	owner *vecOwner
	rows  [vecWidth]Row
}

type vecNode struct {
	owner  *vecOwner
	kids   [vecWidth]*vecNode
	leaves *[vecWidth]*vecLeaf
}

// RowVec is one immutable version of the vector. The zero value is empty.
// All methods are read-only and safe for unsynchronized concurrent use.
type RowVec struct {
	root *vecNode
	// height counts the interior levels above the leaves (at least one once
	// anything is set): the tree spans vecWidth^(height+1) handles.
	height int
	// count is the number of non-nil rows.
	count int
}

// vecSpan returns the number of handles a tree of the given height addresses.
func vecSpan(height int) int64 { return 1 << (uint(height+1) * vecBits) }

// Len returns the number of non-nil rows.
func (v *RowVec) Len() int { return v.count }

// AppendRows appends every non-nil row, in handle order.
func (v *RowVec) AppendRows(dst []Row) []Row {
	return v.root.appendRows(dst, v.height)
}

func (n *vecNode) appendRows(dst []Row, height int) []Row {
	if n == nil {
		return dst
	}
	if height > 1 {
		for _, k := range n.kids {
			dst = k.appendRows(dst, height-1)
		}
		return dst
	}
	for _, leaf := range n.leaves {
		if leaf == nil {
			continue
		}
		for i := range leaf.rows {
			if r := leaf.rows[i]; r != nil {
				dst = append(dst, r)
			}
		}
	}
	return dst
}

// Get returns the row at handle h, nil when the slot is free: the point
// read that holds an epoch to its container slot for slot. Readers scan.
func (v *RowVec) Get(h int32) Row {
	if v.root == nil || int64(h) >= vecSpan(v.height) {
		return nil
	}
	n := v.root
	for height := v.height; height > 1; height-- {
		if n = n.kids[h>>(uint(height)*vecBits)&vecMask]; n == nil {
			return nil
		}
	}
	leaf := n.leaves[h>>vecBits&vecMask]
	if leaf == nil {
		return nil
	}
	return leaf.rows[h&vecMask]
}

// VecTx is a single-writer transaction deriving one version from another.
type VecTx struct {
	owner  *vecOwner
	root   *vecNode
	height int
	count  int
	// copied counts the nodes the transaction copied or created, so a test
	// can assert that a run of handles costs a run of leaves.
	copied int
}

// Edit opens a transaction over v; v itself never changes.
func (v *RowVec) Edit() *VecTx {
	t := &VecTx{owner: new(vecOwner), root: v.root, height: v.height, count: v.count}
	if t.height == 0 {
		t.height = 1
	}
	return t
}

// Publish ends the transaction: with the owner token dropped no node under
// the returned version is ever written again.
func (t *VecTx) Publish() *RowVec {
	v := &RowVec{root: t.root, height: t.height, count: t.count}
	t.owner = nil
	return v
}

// Set stores row at handle h; a nil row frees the slot.
func (t *VecTx) Set(h int32, row Row) {
	for int64(h) >= vecSpan(t.height) {
		if row == nil {
			return // beyond the tree: already free
		}
		if t.root != nil {
			root := &vecNode{owner: t.owner}
			root.kids[0] = t.root
			t.root = root
			t.copied++
		}
		t.height++
	}
	t.root = t.setIn(t.root, t.height, h, row)
}

// setIn stores row below n, a node of the given height, and returns the
// node standing in n's place. Freeing a slot under a subtree that does not
// exist creates nothing.
func (t *VecTx) setIn(n *vecNode, height int, h int32, row Row) *vecNode {
	if n == nil && row == nil {
		return nil
	}
	i := h >> (uint(height) * vecBits) & vecMask
	if height == 1 && row == nil && n.leaves[i] == nil {
		return n
	}
	n = t.own(n, height)
	if height > 1 {
		n.kids[i] = t.setIn(n.kids[i], height-1, h, row)
		return n
	}
	leaf := n.leaves[i]
	switch {
	case leaf == nil:
		leaf = &vecLeaf{owner: t.owner}
		t.copied++
	case leaf.owner != t.owner:
		c := *leaf
		c.owner = t.owner
		leaf = &c
		t.copied++
	}
	n.leaves[i] = leaf
	slot := &leaf.rows[h&vecMask]
	switch {
	case *slot == nil && row != nil:
		t.count++
	case *slot != nil && row == nil:
		t.count--
	}
	*slot = row
	return n
}

// own returns n itself when this transaction created it, and otherwise a
// copy it may edit (a fresh node for a nil n).
func (t *VecTx) own(n *vecNode, height int) *vecNode {
	if n != nil && n.owner == t.owner {
		return n
	}
	t.copied++
	c := &vecNode{owner: t.owner}
	if n != nil {
		c.kids = n.kids
	}
	if height == 1 {
		c.leaves = new([vecWidth]*vecLeaf)
		if n != nil {
			*c.leaves = *n.leaves
		}
	}
	return c
}
