package rel

import (
	"fmt"
	"hash/maphash"
	"slices"
)

// The key index: the one map from keys to int32 values under every Store
// (key → handle) and every Chains (key → bucket).
//
// It is open addressing over a slice of 8-byte slots that hold no pointer —
// 32 bits of the key's hash and the value — so the collector never scans
// it, and it stores no key. Its owner keeps the keys (a Store in its slots,
// a Chains' owner in the rows its buckets hold) and decides equality: a
// probe yields the values filed under the key's hash in probe order, and
// the owner tests each against the key. The capacity is a power of two,
// probing is linear, a delete shifts the slots after it back (no
// tombstones), and growth rehashes from the stored hashes without reading a
// key. A probe writes nothing, so readers may probe concurrently.

// keySeed seeds every key hash: an index never outlives the process.
var keySeed = maphash.MakeSeed()

// hashMask is and-ed into every key hash; CollideKeyHashes zeroes it.
var hashMask = ^uint32(0)

// keyHash returns the 32-bit hash a key is filed under. A string and a byte
// slice with the same bytes hash alike; the interface the switch reads does
// not escape, so hashing allocates nothing.
func keyHash[K string | []byte](key K) uint32 {
	var h uint64
	switch k := any(key).(type) {
	case string:
		h = maphash.String(keySeed, k)
	case []byte:
		h = maphash.Bytes(keySeed, k)
	}
	return uint32(h^h>>32) & hashMask
}

// CollideKeyHashes makes every key hash to one value, so every probe of a
// Store or a Chains runs its owner's equality test against every key filed,
// and returns the function that restores real hashes. It is a test hook: no
// other goroutine may use an index meanwhile, and an index filled under it
// must not be used after the restore.
func CollideKeyHashes() (restore func()) {
	hashMask = 0
	return func() { hashMask = ^uint32(0) }
}

// keySlot is one slot: a key's hash and its value plus one; 0 is empty.
type keySlot struct {
	hash uint32
	val  int32
}

// keyIndex is a multimap from 32-bit key hashes to int32 values ≥ 0; which
// key a value stands for is its owner's. The zero value is empty.
type keyIndex struct {
	slots []keySlot
	n     int
}

// keyProbe walks the slots of one hash's probe sequence: i is the next slot
// to read, at the slot of the value next returned last.
type keyProbe struct {
	hash  uint32
	i, at uint32
}

// Len returns the number of values filed.
func (x *keyIndex) Len() int { return x.n }

func (x *keyIndex) mask() uint32 { return uint32(len(x.slots) - 1) }

// probe starts the probe sequence of hash.
func (x *keyIndex) probe(hash uint32) keyProbe {
	return keyProbe{hash: hash, i: hash & x.mask()}
}

// next returns the next value of p's sequence filed under p's hash, and
// false at the empty slot that ends the sequence, where p then rests.
func (x *keyIndex) next(p *keyProbe) (int32, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	m := x.mask()
	for {
		s := x.slots[p.i]
		if s.val == 0 {
			return 0, false
		}
		p.at, p.i = p.i, (p.i+1)&m
		if s.hash == p.hash {
			return s.val - 1, true
		}
	}
}

// put files v under p's hash in the empty slot where next left p.
func (x *keyIndex) put(p *keyProbe, v int32) {
	if 4*(x.n+1) > 3*len(x.slots) {
		x.add(p.hash, v)
		return
	}
	x.slots[p.i] = keySlot{hash: p.hash, val: v + 1}
	x.n++
}

// add files v under hash, for a value the caller knows is not filed.
func (x *keyIndex) add(hash uint32, v int32) {
	if 4*(x.n+1) > 3*len(x.slots) {
		x.grow()
	}
	x.place(keySlot{hash: hash, val: v + 1})
	x.n++
}

// place puts s in the first empty slot from its hash's home on.
func (x *keyIndex) place(s keySlot) {
	m := x.mask()
	i := s.hash & m
	for x.slots[i].val != 0 {
		i = (i + 1) & m
	}
	x.slots[i] = s
}

// grow doubles the slots, rehashing from the stored hashes.
func (x *keyIndex) grow() {
	old := x.slots
	x.slots = make([]keySlot, max(8, 2*len(old)))
	for _, s := range old {
		if s.val != 0 {
			x.place(s)
		}
	}
}

// del removes the value next returned last to p. Every later slot of the
// run moves back into the hole when the hole lies on its probe path — at or
// after its home, cyclically — so no slot is left unreachable.
func (x *keyIndex) del(p *keyProbe) {
	m := x.mask()
	hole := p.at
	for j := (hole + 1) & m; x.slots[j].val != 0; j = (j + 1) & m {
		if s := x.slots[j]; (j-s.hash)&m >= (j-hole)&m {
			x.slots[hole], hole = s, j
		}
	}
	x.slots[hole] = keySlot{}
	x.n--
}

// each calls yield with every value filed, in slot order, until it returns
// false. The index must not change meanwhile.
func (x *keyIndex) each(yield func(v int32) bool) {
	for _, s := range x.slots {
		if s.val != 0 && !yield(s.val-1) {
			return
		}
	}
}

// check fails when the count is off, the load is past 3/4, or a value is
// out of reach: it sits further from its hash's home than the run of
// occupied slots that ends at it reaches back.
func (x *keyIndex) check() error {
	m := x.mask()
	empty := slices.IndexFunc(x.slots, func(s keySlot) bool { return s.val == 0 })
	if len(x.slots) > 0 && empty < 0 {
		return fmt.Errorf("rel: key index: all %d slots taken", len(x.slots))
	}
	n, run := 0, uint32(0)
	for k := range x.slots {
		i := (uint32(empty) + 1 + uint32(k)) & m
		s := x.slots[i]
		if s.val == 0 {
			run = 0
			continue
		}
		if n, run = n+1, run+1; (i-s.hash)&m >= run {
			return fmt.Errorf("rel: key index: slot %d (home %d) is past an empty slot", i, s.hash&m)
		}
	}
	if n != x.n || 4*n > 3*len(x.slots) {
		return fmt.Errorf("rel: key index: %d values counted %d, in %d slots", n, x.n, len(x.slots))
	}
	return nil
}
