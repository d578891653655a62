package rel

// The slab: where a stored row lives, for base tables and views alike.
//
// A stored row is a {key, row} pair in a slab of fixed-size chunks, so
// growing the container never copies a row, addressed by an int32 handle;
// a LIFO free list recycles the handles of deleted rows. The container
// keeps its own map from key to handle and whatever else refers to a row
// refers to the handle: a table's index buckets (table.go), a view's
// per-table chains (view/store.go).
//
// A handle names one row for as long as the row is committed. A staged
// delete only takes the row out of sight — out of the key map and the
// buckets — and leaves {key, row} in the slot; undoing the delete relinks it
// in place, committing it releases the slot. So an undone mutation leaves
// every live row at the handle it had, and the epoch the commits walk into,
// a vector indexed by handle (rowvec.go), equals the committed slab slot for
// slot.
// Nothing but the log that took a dead slot out of sight can reach it: every
// reader goes through the key map or a bucket.

const (
	// SlabChunkBits fixes the slab chunk at 512 rows (20 kB of slots).
	// A container that keeps per-handle state of its own (a view's chain
	// links) grows it in chunks of the same size.
	SlabChunkBits = 9
	SlabChunk     = 1 << SlabChunkBits
)

// Slot is one slab slot; the zero value is a free slot.
type Slot struct {
	Key string
	Row Row
}

// Slab is a handle-addressed row container. The zero value is empty.
type Slab struct {
	chunks [][]Slot
	// used counts the handles ever handed out; free lists the ones given
	// back since.
	used int32
	free []int32
}

// At returns the slot of handle h.
func (s *Slab) At(h int32) *Slot {
	return &s.chunks[h>>SlabChunkBits][h&(SlabChunk-1)]
}

// Alloc hands out a free handle, growing the slab by one chunk when every
// slot is taken.
func (s *Slab) Alloc() int32 {
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		return h
	}
	if int(s.used) == len(s.chunks)*SlabChunk {
		s.chunks = append(s.chunks, make([]Slot, SlabChunk))
	}
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
