package rel

import "testing"

// TestArenaChunks pins the arena's growth: the first chunk is exactly the
// first row, each later one doubles what the arena holds up to
// arenaMaxChunk, a row wider than that gets a chunk of its own, and a
// carved row is all NULL, has cap == len and shares no value with another.
func TestArenaChunks(t *testing.T) {
	var a Arena
	r, grew := a.Row(5)
	if grew != 5*valueBytes || a.held != 5 {
		t.Fatalf("first row grew %d B, holds %d values, want exactly the row", grew, a.held)
	}
	rows := []Row{r}
	held := 5
	for i := 1; i < 20000; i++ {
		r, grew := a.Row(5)
		if len(r) != 5 || cap(r) != 5 {
			t.Fatalf("row %d has len %d cap %d, want 5 and 5", i, len(r), cap(r))
		}
		for _, v := range r {
			if !v.IsNull() {
				t.Fatalf("row %d carved with %v", i, r)
			}
		}
		if grew > 0 {
			if want := min(held, arenaMaxChunk) * valueBytes; grew != want {
				t.Fatalf("chunk after %d values grew %d B, want %d", held, grew, want)
			}
			held += grew / valueBytes
		}
		rows = append(rows, r)
	}
	if a.held != held {
		t.Fatalf("the arena holds %d values, its growth adds up to %d", a.held, held)
	}
	for i, r := range rows {
		r[4] = Int(int64(i))
	}
	for i, r := range rows {
		if r[4].AsInt() != int64(i) {
			t.Fatalf("row %d reads %v: two rows share values", i, r)
		}
	}
	if _, grew := a.Row(arenaMaxChunk + 1); grew != (arenaMaxChunk+1)*valueBytes {
		t.Fatalf("an over-wide row grew %d B, want a chunk of its own width", grew)
	}
}

// TestArenaReset: Reset keeps every chunk, so the same run again grows
// nothing, and sets every carved value back to NULL.
func TestArenaReset(t *testing.T) {
	var a Arena
	run := func() (grew int, rows []Row) {
		for i := range 300 {
			r, g := a.Row(1 + i%7)
			grew += g
			for j := range r {
				r[j] = Str("x")
			}
			rows = append(rows, r)
		}
		return grew, rows
	}
	first, rows := run()
	if first == 0 {
		t.Fatal("the first run grew nothing")
	}
	a.Reset()
	for _, r := range rows {
		for _, v := range r {
			if !v.IsNull() {
				t.Fatalf("Reset left %v", r)
			}
		}
	}
	held := a.held
	if again, _ := run(); again != 0 || a.held != held {
		t.Fatalf("the second identical run grew %d B (held %d → %d values)", again, held, a.held)
	}
}
