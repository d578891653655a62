package rel

import (
	"bytes"
	"testing"
)

// arrangeFixture is p(k, v) with three rows and no secondary index.
func arrangeFixture(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	c := NewCatalog()
	tab, err := c.CreateTable("p", []Column{
		{Name: "k", Kind: KindInt},
		{Name: "v", Kind: KindInt, NotNull: true},
	}, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("p", []Row{{Int(1), Int(10)}, {Int(2), Int(20)}, {Int(3), Int(10)}}); err != nil {
		t.Fatal(err)
	}
	return c, tab
}

// TestArrangeSharesAndReleases: the first Arrange over a column set builds
// an index and moves the design generation; later ones share it and move
// nothing; the index is maintained by base apply like any other; it goes —
// with another move — when the last holder releases it.
func TestArrangeSharesAndReleases(t *testing.T) {
	c, tab := arrangeFixture(t)
	gen := c.DesignGeneration()
	ix, err := c.Arrange("p", []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Pinned() || ix.Name() != "arr_p_v" || len(tab.Indexes()) != 1 {
		t.Fatalf("arrangement %q pinned=%v, %d indexes", ix.Name(), ix.Pinned(), len(tab.Indexes()))
	}
	if c.DesignGeneration() == gen {
		t.Fatal("building an arrangement did not move the design generation")
	}
	if got := int(ix.Get([]byte(EncodeValues(Int(10)))).Count); got != 2 {
		t.Fatalf("arrangement built over existing rows finds %d rows for v=10, want 2", got)
	}
	gen = c.DesignGeneration()
	again, err := c.Arrange("p", []int{1})
	if err != nil || again != ix || len(tab.Indexes()) != 1 {
		t.Fatalf("second Arrange: index %p (first %p), err %v", again, ix, err)
	}
	if c.DesignGeneration() != gen {
		t.Fatal("sharing an arrangement moved the design generation")
	}
	if err := c.Insert("p", []Row{{Int(4), Int(10)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("p", [][]Value{{Int(1)}}); err != nil {
		t.Fatal(err)
	}
	if got := int(ix.Get([]byte(EncodeValues(Int(10)))).Count); got != 2 {
		t.Fatalf("after an insert and a delete the arrangement finds %d rows for v=10, want 2", got)
	}
	c.Release("p", ix)
	if len(tab.Indexes()) != 1 {
		t.Fatal("the arrangement was dropped while a holder remains")
	}
	gen = c.DesignGeneration()
	c.Release("p", ix)
	if len(tab.Indexes()) != 0 {
		t.Fatal("the arrangement outlived its last holder")
	}
	if c.DesignGeneration() == gen {
		t.Fatal("dropping an arrangement did not move the design generation")
	}
	if _, err := c.Arrange("p", []int{7}); err == nil {
		t.Fatal("Arrange over a column the table does not have succeeded")
	}
	if _, err := c.Arrange("nosuch", []int{0}); err == nil {
		t.Fatal("Arrange on an unknown table succeeded")
	}
}

// TestArrangePinning: ownership only grows. A declared index serves an
// Arrange as it stands and survives the Release; CreateIndex over an
// arranged set adopts (and renames) the arrangement instead of building a
// twin; AddForeignKey adopts it as the constraint's validation index, which
// must therefore outlive every holder. Save writes pinned indexes only.
func TestArrangePinning(t *testing.T) {
	indexNames := func(c *Catalog) (out []string) {
		for _, ix := range c.Table("p").Indexes() {
			out = append(out, ix.Name())
		}
		return out
	}
	saved := func(c *Catalog) *Catalog {
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadCatalog(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return loaded
	}
	t.Run("declared-first", func(t *testing.T) {
		c, tab := arrangeFixture(t)
		declared, err := c.CreateIndex("p", "p_v", "v")
		if err != nil {
			t.Fatal(err)
		}
		ix, err := c.Arrange("p", []int{1})
		if err != nil || ix != declared {
			t.Fatalf("Arrange over a declared set returned %p, want the declared index %p (err %v)", ix, declared, err)
		}
		c.Release("p", ix)
		if got := tab.Indexes(); len(got) != 1 || got[0] != declared {
			t.Fatal("releasing a declared index dropped it")
		}
	})
	t.Run("create-index-adopts", func(t *testing.T) {
		c, _ := arrangeFixture(t)
		ix, err := c.Arrange("p", []int{1})
		if err != nil {
			t.Fatal(err)
		}
		if got := indexNames(saved(c)); len(got) != 0 {
			t.Fatalf("Save wrote derived indexes %v", got)
		}
		gen := c.DesignGeneration()
		named, err := c.CreateIndex("p", "p_v", "v")
		if err != nil || named != ix || !ix.Pinned() || ix.Name() != "p_v" {
			t.Fatalf("CreateIndex over an arranged set: %p %q pinned=%v err=%v, want the arrangement adopted as p_v", named, ix.Name(), ix.Pinned(), err)
		}
		if c.DesignGeneration() == gen {
			t.Fatal("adopting an arrangement did not move the design generation (compiled plans print the index name)")
		}
		c.Release("p", ix)
		if got := indexNames(c); len(got) != 1 || got[0] != "p_v" {
			t.Fatalf("after Release the table has indexes %v, want the adopted p_v", got)
		}
		if got := indexNames(saved(c)); len(got) != 1 || got[0] != "p_v" {
			t.Fatalf("Save wrote indexes %v, want the adopted p_v", got)
		}
		// A second declaration over the now-pinned set is a twin, as before.
		if _, err := c.CreateIndex("p", "p_v2", "v"); err != nil {
			t.Fatal(err)
		}
		if got := indexNames(c); len(got) != 2 {
			t.Fatalf("indexes %v, want p_v and its declared twin", got)
		}
	})
	t.Run("foreign-key-adopts", func(t *testing.T) {
		c, _ := arrangeFixture(t)
		if _, err := c.CreateTable("q", []Column{{Name: "v", Kind: KindInt}}, "v"); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert("q", []Row{{Int(10)}, {Int(20)}, {Int(30)}}); err != nil {
			t.Fatal(err)
		}
		ix, err := c.Arrange("p", []int{1})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddForeignKey("p", []string{"v"}, "q", []string{"v"}); err != nil {
			t.Fatal(err)
		}
		if got := c.Table("p").Indexes(); len(got) != 1 || got[0] != ix || !ix.Pinned() {
			t.Fatal("AddForeignKey did not adopt the arrangement as its validation index")
		}
		c.Release("p", ix)
		if got := c.Table("p").Indexes(); len(got) != 1 || got[0] != ix {
			t.Fatal("the constraint's validation index was dropped with its last holder")
		}
		if err := c.Insert("p", []Row{{Int(9), Int(30)}}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Delete("q", [][]Value{{Int(30)}}); err == nil {
			t.Fatal("RESTRICT no longer sees a child inserted after the release")
		}
		loaded := saved(c)
		if _, err := loaded.Delete("q", [][]Value{{Int(10)}}); err == nil {
			t.Fatal("after a Save round trip the referenced row is deletable")
		}
	})
}
