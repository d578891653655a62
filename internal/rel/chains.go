package rel

import "fmt"

// Chains: the handles filed under a key, under a table's secondary index
// (table.go) and a view's per-table orphan index (internal/view) alike.
//
// A key's handles form an intrusive doubly-linked chain through pointer-free
// links, one per handle. The key index (keyindex.go) files a bucket number
// under the key's hash, the bucket holds the chain's head and length. No key
// is stored: the owner keeps the rows, and every call passes a match that
// tells whether the row at a bucket's head is filed under the call's key —
// a table index re-reads the head row's indexed columns, a view its part of
// the head row's view key — through the owner as it is now, so the match
// follows an owner that swaps its rows. Links are chunked (slab.go), so they
// never grow by a copy; buckets are a plain slice, reached only by number.
// Filing a handle, or unfiling one while others stay under its key, probes
// the key index once, writes a constant number of links at any bucket size
// (a bucket-as-slice makes deleting from a hot key linear) and allocates
// nothing, for a string key or a reused byte buffer alike.

// NoHandle ends a chain.
const NoHandle int32 = -1

// Chain is one key's bucket: its first handle and how many it holds.
type Chain struct{ Head, Count int32 }

// chainLink is a handle's place in its chain.
type chainLink struct{ next, prev int32 }

// Chains is a multimap from keys, held as K, to int32 handles, each handle
// filed under at most one key. The zero value is empty.
type Chains[K string | []byte] struct {
	keys keyIndex
	// buckets[0] is never used, so bucket 0 ends the free list of released
	// buckets, threaded through Head from free.
	buckets []Chain
	free    int32
	links   chunked[chainLink]
	// ops counts the links written, so a test can assert that filing stays
	// linear in the handles on a hot key.
	ops int
}

// Len returns the number of keys with a handle filed under them.
func (c *Chains[K]) Len() int { return c.keys.Len() }

// LinkOps returns the number of links written so far.
func (c *Chains[K]) LinkOps() int { return c.ops }

// find probes key's hash for the bucket whose head match accepts, or whose
// head is h; p rests on it, or on the empty slot where key's bucket goes.
func (c *Chains[K]) find(key K, h int32, match func(head int32) bool) (p keyProbe, b int32, ok bool) {
	p = c.keys.probe(keyHash(key))
	for b, ok = c.keys.next(&p); ok; b, ok = c.keys.next(&p) {
		if head := c.buckets[b].Head; head == h || match(head) {
			return p, b, true
		}
	}
	return p, 0, false
}

// Get returns the bucket of key, {NoHandle, 0} when it holds nothing. match
// reports whether the row at handle head is filed under key.
func (c *Chains[K]) Get(key K, match func(head int32) bool) Chain {
	if _, b, ok := c.find(key, NoHandle, match); ok {
		return c.buckets[b]
	}
	return Chain{Head: NoHandle}
}

// Grow makes the links up to handle h's, which Add makes at the latest. An
// owner that files only some of its handles grows the links with its slab,
// so a handle filed after many unfiled ones does not pay for all their
// chunks at once.
func (c *Chains[K]) Grow(h int32) { c.links.grow(h) }

// Next returns the handle after h in h's chain, NoHandle after the last.
func (c *Chains[K]) Next(h int32) int32 { return c.links.at(h).next }

// Add files handle h at the head of key's chain; match is Get's.
func (c *Chains[K]) Add(key K, h int32, match func(head int32) bool) {
	p, b, ok := c.find(key, NoHandle, match)
	if !ok {
		if c.buckets == nil {
			c.buckets = make([]Chain, 1)
		}
		if b = c.free; b != 0 {
			c.free = c.buckets[b].Head
		} else {
			b = int32(len(c.buckets))
			c.buckets = append(c.buckets, Chain{})
		}
		c.buckets[b] = Chain{Head: NoHandle}
		c.keys.put(&p, b)
	}
	c.links.grow(h)
	ch := &c.buckets[b]
	*c.links.at(h) = chainLink{next: ch.Head, prev: NoHandle}
	if ch.Head != NoHandle {
		c.links.at(ch.Head).prev = h
	}
	ch.Head = h
	ch.Count++
	c.ops += 2
}

// Delete takes handle h, filed under key, out of its chain; a key that
// holds nothing is left alone. match is Get's; a bucket that h heads is
// found without it.
func (c *Chains[K]) Delete(key K, h int32, match func(head int32) bool) {
	p, b, ok := c.find(key, h, match)
	if !ok {
		return
	}
	l := *c.links.at(h)
	ch := &c.buckets[b]
	if l.prev != NoHandle {
		c.links.at(l.prev).next = l.next
	} else {
		ch.Head = l.next
	}
	if l.next != NoHandle {
		c.links.at(l.next).prev = l.prev
	}
	c.ops += 2
	if ch.Count--; ch.Count == 0 {
		*ch = Chain{Head: c.free}
		c.free = b
		c.keys.del(&p)
	}
}

// Check walks every chain, calling each (when not nil) with its key — keyOf
// of its head, the owner's encoding of what it files a handle under — and
// every handle on it, and the released buckets, and returns the number of
// link chunks. It fails when the key index is unsound, a bucket is empty or
// miscounts its chain, a back link does not point where its chain came
// from, a chain is longer than there are links (a cycle), a handle on a
// chain is not filed under its bucket's key, a bucket is not under its key's
// hash or a probe of its key meets another bucket of the key first, or a
// bucket is neither under a key nor released. It is for the owners' tests.
func (c *Chains[K]) Check(keyOf func(h int32) string, each func(key string, h int32)) (linkChunks int, err error) {
	if err := c.keys.check(); err != nil {
		return 0, err
	}
	for _, s := range c.keys.slots {
		if s.val == 0 {
			continue
		}
		b := s.val - 1
		if c.buckets[b].Count <= 0 {
			return 0, fmt.Errorf("rel: bucket %d is filed empty", b)
		}
		key := keyOf(c.buckets[b].Head)
		if keyHash(key) != s.hash {
			return 0, fmt.Errorf("rel: key %x is not filed under its hash", key)
		}
		// A probe of the key meets no other bucket of the key first.
		p := c.keys.probe(s.hash)
		for other, _ := c.keys.next(&p); other != b; other, _ = c.keys.next(&p) {
			if c.buckets[other].Count > 0 && keyOf(c.buckets[other].Head) == key {
				return 0, fmt.Errorf("rel: key %x is filed twice", key)
			}
		}
		n, prev := 0, NoHandle
		for h := c.buckets[b].Head; h != NoHandle; prev, h = h, c.Next(h) {
			if n++; c.links.at(h).prev != prev || n > len(c.links)*SlabChunk {
				return 0, fmt.Errorf("rel: key %x: handle %d links back to %d, not %d, or closes a cycle", key, h, c.links.at(h).prev, prev)
			}
			if got := keyOf(h); got != key {
				return 0, fmt.Errorf("rel: key %x: handle %d is on the chain but filed under %x", key, h, got)
			}
			if each != nil {
				each(key, h)
			}
		}
		if n != int(c.buckets[b].Count) {
			return 0, fmt.Errorf("rel: key %x: the bucket counts %d handles, its chain has %d", key, c.buckets[b].Count, n)
		}
	}
	released := 0
	for f := c.free; f != 0 && released < len(c.buckets); f = c.buckets[f].Head {
		released++
	}
	if len(c.buckets) > 0 && 1+released+c.keys.Len() != len(c.buckets) {
		return 0, fmt.Errorf("rel: %d keys and %d released buckets, %d handed out", c.keys.Len(), released, len(c.buckets)-1)
	}
	return len(c.links), nil
}
