package view

import "ojv/internal/rel"

// The view store: what a stored view keeps beside its rows, and what it
// costs.
//
// A stored row is one slot of a rel.Store — {view key, row} behind an int32
// handle, under the key map, the undo log, the rollback, the commit walk and
// the seal the Store shares with base tables (rel/store.go). What a view
// adds is its own and is kept here, in step with the Store through the
// view's link hook (Materialized.linkSlot): the term counters, the
// membership words of a family's filtered members, and the per-table index,
// which threads an intrusive doubly-linked chain per distinct table key
// through a second, pointer-free slab of links (one link per row per table),
// so adding a row to a bucket or taking it out is a constant number of link
// writes at any bucket size and allocates nothing per bucket. A bucket's map
// key is a substring of one of its rows' view keys (the view key is the
// concatenation of the tables' encoded keys), so no table key is ever
// encoded or stored on its own.
//
// A staged delete only unlinks the row — out of the key map, its term's
// counter and the chains — and leaves it in its slot; the changeset's
// rollback relinks it in place, the commit walk releases the slot. So a
// rolled-back changeset leaves every live row at the handle it had, and the
// family's epoch (a rel.RowVec indexed by handle) equals the committed
// store slot for slot.
//
// An aggregation view keeps its groups in a rel.Store too (agg.go), one
// state row per group under the encoded group key, with none of this.

const (
	// maxTables is the widest view a uint32 term pattern can describe.
	maxTables = 32

	// noRow ends a chain.
	noRow int32 = -1

	// nullTag is the encoding of NULL: a null-extended table's part of a
	// view key is one nullTag per key column.
	nullTag = byte(rel.KindNull)
)

// chainLink is a row's place in one table's chain.
type chainLink struct{ next, prev int32 }

// chain is one bucket of the per-table index: the rows whose part for the
// table equals the bucket's key.
type chain struct{ head, count int32 }

// store is what a Materialized keeps beside its rows.
type store struct {
	// patternCount counts the linked rows of each term pattern.
	patternCount map[uint32]int

	// perTable[i] maps table i's encoded key to the chain of view rows
	// containing that tuple; links holds the chains' links, row h's link
	// for table i at links[h>>rel.SlabChunkBits][(h&(rel.SlabChunk-1))*len(perTable)+i].
	// Both nil when Options.DisableOrphanIndex.
	perTable []map[string]chain
	links    [][]chainLink
	// bits[h] is the membership word of the row in slot h: bit i is set when
	// the family's filtered member in slot i holds the row (family.go). nil
	// while no member is filtered.
	bits []uint64
	// linkOps counts the links written or followed, so a test can assert
	// that index maintenance stays linear in the rows on a hot key.
	linkOps int
}

func newStore(nTables int, indexed bool) store {
	s := store{patternCount: make(map[uint32]int)}
	if indexed {
		s.perTable = make([]map[string]chain, nTables)
		for i := range s.perTable {
			s.perTable[i] = make(map[string]chain)
		}
	}
	return s
}

func (s *store) link(h int32, table int) *chainLink {
	return &s.links[h>>rel.SlabChunkBits][int(h&(rel.SlabChunk-1))*len(s.perTable)+table]
}

// chainAdd puts row h at the head of table's chain for key tk.
func (s *store) chainAdd(table int, tk string, h int32) {
	c, ok := s.perTable[table][tk]
	if !ok {
		c.head = noRow
	}
	*s.link(h, table) = chainLink{next: c.head, prev: noRow}
	if c.head != noRow {
		s.link(c.head, table).prev = h
	}
	s.linkOps += 2
	s.perTable[table][tk] = chain{head: h, count: c.count + 1}
}

// chainRemove takes row h out of table's chain for key tk.
func (s *store) chainRemove(table int, tk string, h int32) {
	c := s.perTable[table][tk]
	l := *s.link(h, table)
	if l.prev != noRow {
		s.link(l.prev, table).next = l.next
	} else {
		c.head = l.next
	}
	if l.next != noRow {
		s.link(l.next, table).prev = l.prev
	}
	s.linkOps += 2
	if c.count--; c.count == 0 {
		delete(s.perTable[table], tk)
		return
	}
	s.perTable[table][tk] = c
}

// keyParts holds the start of each table's part of a view key, and the
// key's length after the last.
type keyParts [maxTables + 1]int32

// skipEncoded returns the offset after the value that rel's injective
// encoding (rel.AppendEncoded) put at key[off:]: a kind tag alone for NULL,
// the tag and 8 bytes for the fixed-width kinds, the tag, a 4-byte length
// and the bytes for a string.
func skipEncoded(key string, off int32) int32 {
	switch rel.Kind(key[off]) {
	case rel.KindNull:
		return off + 1
	case rel.KindString:
		n := uint32(key[off+1])<<24 | uint32(key[off+2])<<16 | uint32(key[off+3])<<8 | uint32(key[off+4])
		return off + 5 + int32(n)
	default:
		return off + 9
	}
}
