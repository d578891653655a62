package rel

// The slab: where a stored row lives, for base tables and views alike.
//
// A stored row is a {key, row} pair in a slab of fixed-size chunks, so
// growing the container never copies a row, addressed by an int32 handle;
// a LIFO free list recycles the handles of deleted rows. The slab is the
// bottom of the one versioned container base tables and view families
// share (Store, store.go), which keeps the index from key to handle, the log
// and the epochs over it. Whatever else refers to a row refers to the
// handle, and is the owner's: a table's indexes and a view's per-table
// chains, both Chains (chains.go).
//
// A handle names one row for as long as the row is committed. A staged
// delete only takes the row out of sight — out of the key index and the
// buckets — and leaves {key, row} in the slot; undoing the delete relinks it
// in place, and the Store's commit walk releases the slot. So an undone mutation leaves
// every live row at the handle it had, and the epoch the commits walk into,
// a vector indexed by handle (rowvec.go), equals the committed slab slot for
// slot.
// Nothing but the log that took a dead slot out of sight can reach it: every
// reader goes through the key index or a bucket.

const (
	// SlabChunkBits fixes the slab chunk at 512 rows (20 kB of slots).
	// Per-handle state kept beside the slab (Chains' links) grows in chunks
	// of the same size.
	SlabChunkBits = 9
	SlabChunk     = 1 << SlabChunkBits
)

// chunked is an int32-indexed array in chunks of SlabChunk elements, so
// growing never copies an element: the slab's slots and Chains' links.
type chunked[T any] [][]T

func (a chunked[T]) at(i int32) *T { return &a[i>>SlabChunkBits][i&(SlabChunk-1)] }

// grow makes every chunk up to the one of index i.
func (a *chunked[T]) grow(i int32) {
	for int(i>>SlabChunkBits) >= len(*a) {
		*a = append(*a, make([]T, SlabChunk))
	}
}

// Slot is one slab slot; the zero value is a free slot.
type Slot struct {
	Key string
	Row Row
}

// Slab is a handle-addressed row container. The zero value is empty.
type Slab struct {
	chunks chunked[Slot]
	// used counts the handles ever handed out; free lists the ones given
	// back since.
	used int32
	free []int32
}

// At returns the slot of handle h.
func (s *Slab) At(h int32) *Slot { return s.chunks.at(h) }

// Alloc hands out a free handle, growing the slab by one chunk when every
// slot is taken.
func (s *Slab) Alloc() int32 {
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		return h
	}
	s.chunks.grow(s.used)
	s.used++
	return s.used - 1
}

// Release clears h's slot, so the row and its key can be collected, and
// puts the handle on the free list.
func (s *Slab) Release(h int32) {
	*s.At(h) = Slot{}
	s.free = append(s.free, h)
}

// Used returns the number of handles ever handed out: every handle is below
// it, and every slot at or above it is free.
func (s *Slab) Used() int32 { return s.used }

// Free returns the released handles, the next to be reused last. Callers
// must not modify it.
func (s *Slab) Free() []int32 { return s.free }
