package rel

import "unsafe"

// The arena: where the executor's rows live for one run.
//
// A run of an exec program builds rows — a join's concatenations, a null
// extension, λ's copy, a padded or projected row, a group's output — that
// nobody keeps past the run: maintenance stores projected copies. So they
// need not be heap objects of their own. An Arena carves each of them out of
// a chunk of values it keeps, and Reset hands every chunk back for the next
// run in one sweep.
//
// A carved row is a slice with cap == len, so an append to it reallocates
// instead of writing into the next row. A chunk never moves once allocated,
// so a carved row stays where it is until Reset. The first chunk holds
// exactly the first row carved, and each later chunk doubles what the arena
// holds, up to arenaMaxChunk values: an arena that serves one-row runs stays
// one row big, and one that serves large runs reaches its size in a few
// chunks.

// arenaMaxChunk caps the values of one chunk (384 kB of 24-byte values); a
// row wider than that gets a chunk of its own width.
const arenaMaxChunk = 1 << 14

// valueBytes is the size of one Value.
const valueBytes = int(unsafe.Sizeof(Value{}))

// Arena is a chunked allocator of rows. The zero value is empty and ready.
// An Arena is not safe for concurrent use.
type Arena struct {
	chunks [][]Value
	// cur is the chunk being carved and off the values carved from it; the
	// chunks before cur are spent, those after it untouched since Reset.
	cur, off int
	// held counts the values of every chunk.
	held int
}

// Row carves a row of width values, every one NULL, and returns it with
// the bytes the arena allocated to hold it: 0 unless it took a new chunk.
func (a *Arena) Row(width int) (Row, int) {
	for ; a.cur < len(a.chunks); a.cur, a.off = a.cur+1, 0 {
		if c := a.chunks[a.cur]; a.off+width <= len(c) {
			r := c[a.off : a.off+width : a.off+width]
			a.off += width
			return r, 0
		}
	}
	n := max(width, min(a.held, arenaMaxChunk))
	a.chunks = append(a.chunks, make([]Value, n))
	a.held += n
	a.cur, a.off = len(a.chunks)-1, width
	return a.chunks[a.cur][:width:width], n * valueBytes
}

// Reset sets every value carved since the last Reset back to NULL, so the
// rows they held release what they pointed to, and makes every chunk
// available again. Rows carved before it must not be used after it.
func (a *Arena) Reset() {
	if len(a.chunks) == 0 {
		return
	}
	for _, c := range a.chunks[:a.cur] {
		clear(c)
	}
	clear(a.chunks[a.cur][:a.off])
	a.cur, a.off = 0, 0
}
