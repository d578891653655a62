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
// one rel.Chains per table (rel/chains.go, as under a table index). A
// bucket's key is a substring of one of its rows' view keys (the view key
// is the concatenation of the tables' encoded keys), so no table key is
// ever encoded or stored on its own.
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

	// nullTag is the encoding of NULL: a null-extended table's part of a
	// view key is one nullTag per key column.
	nullTag = byte(rel.KindNull)
)

// store is what a Materialized keeps beside its rows.
type store struct {
	// patternCount counts the linked rows of each term pattern.
	patternCount map[uint32]int

	// perTable[i] files the view rows containing a tuple of table i under
	// the tuple's encoded key; nil when Options.DisableOrphanIndex.
	perTable []rel.Chains[string]
	// bits[h] is the membership word of the row in slot h: bit i is set when
	// the family's filtered member in slot i holds the row (family.go). nil
	// while no member is filtered.
	bits []uint64
	// walked counts the links containsTuple followed, so a test can assert
	// that a probe walks the shortest chain.
	walked int
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
