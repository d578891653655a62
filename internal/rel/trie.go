package rel

import (
	"math/bits"
	"slices"
)

// A persistent hash trie (HAMT) with string keys: the representation
// behind every published EpochMap.
//
// Each node consumes trieBits of the key's 64-bit hash. A set bit i in
// datamap means exactly one key below this node has fragment i, stored
// inline in entries; a set bit in nodemap means two or more do, stored in
// a child node (the two maps are disjoint, and each array is ordered by
// fragment, so a slot's position is the population count of the lower
// bits). Below the last fragment a node is a collision bucket: its maps
// are unused and its entries, whose full hashes are equal, are scanned.
// Every node but the root holds at least two keys: a delete that leaves
// one pulls it back up into the parent.
//
// A root reachable from a published epoch is never written. A container's
// first epoch is built whole (buildTrie); deriving the next epoch from one
// opens a trieTx, whose owner token marks the nodes it creates: those it
// edits in place, any other node it copies on first touch (path copying).
// What an owned node may edit in place is its header and its children
// array, which the copy made private; entry arrays are immutable once
// attached and shared freely between a copy and its original. The token is
// compared by identity and dropped when the transaction ends, which
// freezes every node it marked.

const (
	trieBits = 5
	trieMask = 1<<trieBits - 1
	hashBits = 64
)

// trieOwner is the identity of one trieTx. It has a size so that distinct
// tokens have distinct addresses.
type trieOwner struct{ _ byte }

type trieEntry[V any] struct {
	key string
	val V
}

type trieNode[V any] struct {
	datamap, nodemap uint32
	entries          []trieEntry[V]
	children         []*trieNode[V]
	owner            *trieOwner
}

// slot returns the bit of h's fragment at shift and, for each map, the
// array position that bit has (or would take).
func (n *trieNode[V]) slot(h uint64, shift uint) (bit uint32, entry, child int) {
	bit = 1 << (h >> shift & trieMask)
	return bit, bits.OnesCount32(n.datamap & (bit - 1)), bits.OnesCount32(n.nodemap & (bit - 1))
}

func (n *trieNode[V]) get(h uint64, k string) (V, bool) {
	var zero V
	for shift := uint(0); shift < hashBits; shift += trieBits {
		bit, i, j := n.slot(h, shift)
		if n.datamap&bit != 0 {
			if e := &n.entries[i]; e.key == k {
				return e.val, true
			}
			return zero, false
		}
		if n.nodemap&bit == 0 {
			return zero, false
		}
		n = n.children[j]
	}
	// Past the last fragment: n is a collision bucket.
	for i := range n.entries {
		if e := &n.entries[i]; e.key == k {
			return e.val, true
		}
	}
	return zero, false
}

// walk calls f for every entry below n until f returns false, and reports
// whether it ran to the end.
func (n *trieNode[V]) walk(f func(string, V) bool) bool {
	for i := range n.entries {
		if e := &n.entries[i]; !f(e.key, e.val) {
			return false
		}
	}
	for _, c := range n.children {
		if !c.walk(f) {
			return false
		}
	}
	return true
}

// trieItem is an entry with its hash, the unit buildTrie sorts.
type trieItem[V any] struct {
	hash  uint64
	entry trieEntry[V]
}

// buildTrie builds the node for items, which agree on every fragment
// below shift, with exactly sized arrays: one counting-sort pass by the
// fragment at shift, from items into scratch (same length; the two swap
// roles one level down), then one child per fragment with two or more
// keys. Building a whole container this way takes about a third of the time
// of inserting its keys one by one through a trieTx, and the nodes are all
// it allocates.
func buildTrie[V any](items, scratch []trieItem[V], shift uint) *trieNode[V] {
	n := &trieNode[V]{}
	if shift >= hashBits {
		n.entries = make([]trieEntry[V], len(items))
		for i := range items {
			n.entries[i] = items[i].entry
		}
		return n
	}
	var end [trieMask + 1]int // end[f]: where fragment f's run ends in scratch
	for i := range items {
		end[items[i].hash>>shift&trieMask]++
	}
	sum, inline := 0, 0
	for f, c := range end {
		if c == 1 {
			inline++
			n.datamap |= 1 << f
		} else if c > 1 {
			n.nodemap |= 1 << f
		}
		end[f], sum = sum, sum+c // the run's start, until the scatter advances it
	}
	for i := range items {
		f := items[i].hash >> shift & trieMask
		scratch[end[f]] = items[i]
		end[f]++
	}
	n.entries = make([]trieEntry[V], 0, inline)
	n.children = make([]*trieNode[V], 0, bits.OnesCount32(n.nodemap))
	start := 0
	for _, stop := range end {
		if stop-start == 1 {
			n.entries = append(n.entries, scratch[start].entry)
		} else if stop-start > 1 {
			n.children = append(n.children, buildTrie(scratch[start:stop], items[start:stop], shift+trieBits))
		}
		start = stop
	}
	return n
}

// trieTx is a single-writer transaction deriving one root from another.
type trieTx[V any] struct {
	owner *trieOwner
	hash  func(string) uint64
	root  *trieNode[V]
	count int
}

func (t *trieTx[V]) set(k string, v V) {
	root, added := t.setIn(t.root, t.hash(k), 0, trieEntry[V]{k, v})
	t.root = root
	if added {
		t.count++
	}
}

func (t *trieTx[V]) delete(k string) {
	root, removed := t.deleteIn(t.root, t.hash(k), 0, k)
	t.root = root
	if removed {
		t.count--
	}
}

// own returns n itself when this transaction created it, and otherwise a
// copy it may edit: a fresh header and a private children array with room
// for spare more. The entry array stays shared; it is replaced, never
// written.
func (t *trieTx[V]) own(n *trieNode[V], spare int) *trieNode[V] {
	if n.owner == t.owner {
		return n
	}
	c := &trieNode[V]{datamap: n.datamap, nodemap: n.nodemap, entries: n.entries, owner: t.owner}
	if len(n.children)+spare > 0 {
		c.children = append(make([]*trieNode[V], 0, len(n.children)+spare), n.children...)
	}
	return c
}

// setIn stores e below n, whose fragment starts at shift, and returns the
// node standing in n's place and whether the key is new.
func (t *trieTx[V]) setIn(n *trieNode[V], h uint64, shift uint, e trieEntry[V]) (*trieNode[V], bool) {
	if shift >= hashBits {
		i := 0
		for i < len(n.entries) && n.entries[i].key != e.key {
			i++
		}
		n = t.own(n, 0)
		if i < len(n.entries) {
			n.entries = entriesWith(n.entries, i, e)
			return n, false
		}
		n.entries = entriesPlus(n.entries, i, e)
		return n, true
	}
	bit, i, j := n.slot(h, shift)
	switch {
	case n.datamap&bit != 0:
		old := n.entries[i]
		if old.key == e.key {
			n = t.own(n, 0)
			n.entries = entriesWith(n.entries, i, e)
			return n, false
		}
		// Two keys now share the fragment: both move one level down.
		child := t.pair(old, t.hash(old.key), e, h, shift+trieBits)
		n = t.own(n, 1)
		n.entries = entriesMinus(n.entries, i)
		n.children = slices.Insert(n.children, j, child)
		n.datamap &^= bit
		n.nodemap |= bit
		return n, true
	case n.nodemap&bit != 0:
		child, added := t.setIn(n.children[j], h, shift+trieBits, e)
		n = t.own(n, 0)
		n.children[j] = child
		return n, added
	}
	n = t.own(n, 0)
	n.entries = entriesPlus(n.entries, i, e)
	n.datamap |= bit
	return n, true
}

// pair builds the node, at shift, that holds two entries whose fragments
// were equal at every shallower level.
func (t *trieTx[V]) pair(a trieEntry[V], ha uint64, b trieEntry[V], hb uint64, shift uint) *trieNode[V] {
	n := &trieNode[V]{owner: t.owner}
	if shift >= hashBits {
		n.entries = []trieEntry[V]{a, b}
		return n
	}
	fa, fb := ha>>shift&trieMask, hb>>shift&trieMask
	switch {
	case fa == fb:
		n.nodemap = 1 << fa
		n.children = []*trieNode[V]{t.pair(a, ha, b, hb, shift+trieBits)}
		return n
	case fa > fb:
		a, b = b, a
	}
	n.datamap = 1<<fa | 1<<fb
	n.entries = []trieEntry[V]{a, b}
	return n
}

// deleteIn removes k below n and returns the node standing in n's place
// and whether k was there. An absent key copies nothing.
func (t *trieTx[V]) deleteIn(n *trieNode[V], h uint64, shift uint, k string) (*trieNode[V], bool) {
	if shift >= hashBits {
		for i := range n.entries {
			if n.entries[i].key == k {
				n = t.own(n, 0)
				n.entries = entriesMinus(n.entries, i)
				return n, true
			}
		}
		return n, false
	}
	bit, i, j := n.slot(h, shift)
	switch {
	case n.datamap&bit != 0:
		if n.entries[i].key != k {
			return n, false
		}
		n = t.own(n, 0)
		n.entries = entriesMinus(n.entries, i)
		n.datamap &^= bit
		return n, true
	case n.nodemap&bit != 0:
		child, removed := t.deleteIn(n.children[j], h, shift+trieBits, k)
		if !removed {
			return n, false
		}
		n = t.own(n, 0)
		if len(child.children) == 0 && len(child.entries) == 1 {
			// The child is down to one key: pull it up inline.
			n.entries = entriesPlus(n.entries, i, child.entries[0])
			n.children = slices.Delete(n.children, j, j+1)
			n.nodemap &^= bit
			n.datamap |= bit
			return n, true
		}
		n.children[j] = child
		return n, true
	}
	return n, false
}

// entriesPlus, entriesMinus and entriesWith return a fresh array with one
// entry inserted at, removed from, or replaced at position i.

func entriesPlus[V any](s []trieEntry[V], i int, e trieEntry[V]) []trieEntry[V] {
	out := make([]trieEntry[V], len(s)+1)
	copy(out, s[:i])
	out[i] = e
	copy(out[i+1:], s[i:])
	return out
}

func entriesMinus[V any](s []trieEntry[V], i int) []trieEntry[V] {
	if len(s) == 1 {
		return nil
	}
	out := make([]trieEntry[V], len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}

func entriesWith[V any](s []trieEntry[V], i int, e trieEntry[V]) []trieEntry[V] {
	out := slices.Clone(s)
	out[i] = e
	return out
}
