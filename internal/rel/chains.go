package rel

import (
	"fmt"
	"unsafe"
)

// Chains: the handles filed under a key, under a table's secondary index
// (table.go) and a view's per-table orphan index (internal/view) alike.
//
// A key's handles form an intrusive doubly-linked chain through pointer-free
// links, one per handle. The key map holds a bucket number, the bucket the
// chain's head and length. Links are chunked (slab.go), so they never grow
// by a copy; buckets are a plain slice, reached only by number. Filing a
// handle, or unfiling one while others stay under its key, writes a
// constant number of links at any bucket size (a bucket-as-slice makes
// deleting from a hot key linear) and allocates nothing, for a string key or
// a reused byte buffer alike: a map index through string(key) does not
// allocate, an assignment through it does, so a bucket is updated in its
// slice, not through the map.

// NoHandle ends a chain.
const NoHandle int32 = -1

// Chain is one key's bucket: its first handle and how many it holds.
type Chain struct{ Head, Count int32 }

// chainLink is a handle's place in its chain.
type chainLink struct{ next, prev int32 }

// Chains is a multimap from keys, held as K, to int32 handles, each handle
// filed under at most one key. The zero value is empty.
type Chains[K ~string | ~[]byte] struct {
	keys map[string]int32
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
func (c *Chains[K]) Len() int { return len(c.keys) }

// LinkOps returns the number of links written so far.
func (c *Chains[K]) LinkOps() int { return c.ops }

// Get returns the bucket of key, {NoHandle, 0} when it holds nothing.
func (c *Chains[K]) Get(key K) Chain {
	if b, ok := c.keys[string(key)]; ok {
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

// Add files handle h at the head of key's chain. A new string key is stored
// as it is: a caller may pass a substring of a string it keeps.
func (c *Chains[K]) Add(key K, h int32) {
	b, ok := c.keys[string(key)]
	if !ok {
		if c.keys == nil {
			c.keys, c.buckets = make(map[string]int32), make([]Chain, 1)
		}
		if b = c.free; b != 0 {
			c.free = c.buckets[b].Head
		} else {
			b = int32(len(c.buckets))
			c.buckets = append(c.buckets, Chain{})
		}
		c.buckets[b] = Chain{Head: NoHandle}
		c.keys[string(key)] = b
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
// holds nothing is left alone.
func (c *Chains[K]) Delete(key K, h int32) {
	b, ok := c.keys[string(key)]
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
		// delete(m, string(key)) copies a byte key longer than 32 bytes;
		// delete keeps nothing of its key, so it may read the bytes in place.
		// A string header is a prefix of a slice header.
		delete(c.keys, *(*string)(unsafe.Pointer(&key)))
	}
}

// Check walks every chain, calling each (when not nil) with its key and
// every handle on it, and the released buckets, and returns the number of
// link chunks. It fails when a bucket is empty or miscounts its chain, a
// back link does not point where its chain came from, a chain is longer
// than there are links (a cycle), or a bucket is neither under a key nor
// released. It is for the owners' tests.
func (c *Chains[K]) Check(each func(key string, h int32)) (linkChunks int, err error) {
	for key, b := range c.keys {
		n, prev := 0, NoHandle
		for h := c.buckets[b].Head; h != NoHandle; prev, h = h, c.Next(h) {
			if n++; c.links.at(h).prev != prev || n > len(c.links)*SlabChunk {
				return 0, fmt.Errorf("rel: key %x: handle %d links back to %d, not %d, or closes a cycle", key, h, c.links.at(h).prev, prev)
			}
			if each != nil {
				each(key, h)
			}
		}
		if n == 0 || n != int(c.buckets[b].Count) {
			return 0, fmt.Errorf("rel: key %x: the bucket counts %d handles, its chain has %d", key, c.buckets[b].Count, n)
		}
	}
	released := 0
	for f := c.free; f != 0 && released < len(c.buckets); f = c.buckets[f].Head {
		released++
	}
	if len(c.buckets) > 0 && 1+released+len(c.keys) != len(c.buckets) {
		return 0, fmt.Errorf("rel: %d keys and %d released buckets, %d handed out", len(c.keys), released, len(c.buckets)-1)
	}
	return len(c.links), nil
}
