package rel

import (
	"bytes"
	"testing"
)

func snapshotFixture(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	if _, err := c.CreateTable("d", []Column{
		{Name: "id", Kind: KindInt},
		{Name: "name", Kind: KindString},
		{Name: "since", Kind: KindDate},
	}, "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("e", []Column{
		{Name: "id", Kind: KindInt},
		{Name: "did", Kind: KindInt, NotNull: true},
		{Name: "sal", Kind: KindFloat},
		{Name: "tmp", Kind: KindBool},
	}, "id"); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Insert("d", []Row{
		{Int(1), Str("eng"), MustDate("2001-02-03")},
		{Int(2), Null, MustDate("2002-03-04")},
	}))
	must(c.AddForeignKey("e", []string{"did"}, "d", []string{"id"}))
	must(c.Insert("e", []Row{
		{Int(10), Int(1), Float(1.5), Bool(true)},
		{Int(11), Int(2), Null, Bool(false)},
	}))
	if _, err := c.CreateIndex("e", "e_sal", "sal"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSnapshotRoundTrip(t *testing.T) {
	c := snapshotFixture(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadCatalog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Table names in order.
	n1, n2 := c.TableNames(), c2.TableNames()
	if len(n1) != len(n2) || n1[0] != n2[0] || n1[1] != n2[1] {
		t.Fatalf("names: %v vs %v", n1, n2)
	}
	// Rows identical (including NULLs and all kinds).
	for _, name := range n1 {
		a := c.Table(name).Rows()
		b := c2.Table(name).Rows()
		SortRows(a)
		SortRows(b)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d rows", name, len(a), len(b))
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("%s row %d: %s vs %s", name, i, a[i], b[i])
			}
		}
	}
	// Constraints survive: FK enforcement works on the restored catalog.
	if err := c2.Insert("e", []Row{{Int(99), Int(42), Null, Null}}); err == nil {
		t.Error("restored catalog must enforce foreign keys")
	}
	if _, err := c2.Delete("d", [][]Value{{Int(1)}}); err == nil {
		t.Error("restored catalog must enforce RESTRICT")
	}
	// Secondary index restored.
	if c2.Table("e").IndexOnSet([]int{c2.Table("e").Schema().MustIndexOf("e", "sal")}) == nil {
		t.Error("secondary index not restored")
	}
	// Key uniqueness enforced.
	if err := c2.Insert("d", []Row{{Int(1), Str("dup"), Null}}); err == nil {
		t.Error("restored catalog must enforce key uniqueness")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	c := snapshotFixture(t)
	var a bytes.Buffer
	if err := c.Save(&a); err != nil {
		t.Fatal(err)
	}
	// Round trip and save again: loadable either way.
	c2, err := LoadCatalog(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := c2.Save(&b); err != nil {
		t.Fatal(err)
	}
	c3, err := LoadCatalog(&b)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Table("e").Len() != 2 {
		t.Error("double round trip lost rows")
	}
}

func TestLoadCatalogRejectsGarbage(t *testing.T) {
	if _, err := LoadCatalog(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage must be rejected")
	}
}

// TestRestoreInPlace pins Catalog.Restore: same catalog, loaded contents,
// a moved design generation (no program compiled over the old tables
// survives) and a published directory that resolves to the loaded tables;
// a snapshot that does not decode leaves everything as it was.
func TestRestoreInPlace(t *testing.T) {
	c := snapshotFixture(t)
	c.PublishEpochs()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("e", [][]Value{{Int(10)}}); err != nil {
		t.Fatal(err)
	}
	c.PublishEpochs()
	stale, before := c.Table("e"), c.DesignGeneration()

	if err := c.Restore(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("junk snapshot restored")
	}
	if c.Table("e") != stale || c.DesignGeneration() != before {
		t.Fatal("failed Restore changed the catalog")
	}

	if err := c.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	c.PublishEpochs()
	if c.Table("e") == stale || c.DesignGeneration() == before {
		t.Fatal("Restore kept the old table or the old design generation")
	}
	if got := c.Table("e").Len(); got != 2 {
		t.Fatalf("restored e has %d rows, want 2", got)
	}
	if got := c.Snapshot("e").Len(); got != 2 {
		t.Fatalf("published epoch of e has %d rows, want 2", got)
	}
	// The restored constraints are live.
	if err := c.Insert("e", []Row{{Int(12), Int(99), Null, Bool(false)}}); err == nil {
		t.Fatal("restored catalog accepted a dangling foreign key")
	}
}

// TestDesignGeneration: the physical-design generation moves on exactly the
// changes a compiled executor program cannot survive — a new table, index
// or foreign key, and Restore swapping the tables — and on nothing a data
// commit does, failed DDL included.
func TestDesignGeneration(t *testing.T) {
	c := snapshotFixture(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	gen := c.DesignGeneration()
	moved := func(what string, want bool) {
		t.Helper()
		if got := c.DesignGeneration(); (got != gen) != want {
			t.Fatalf("%s: generation %d -> %d, want moved=%v", what, gen, got, want)
		}
		gen = c.DesignGeneration()
	}
	if err := c.Insert("d", []Row{{Int(3), Str("ops"), MustDate("2003-04-05")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update("d", []Value{Int(3)}, Row{Int(3), Str("sre"), MustDate("2003-04-05")}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("d", [][]Value{{Int(3)}}); err != nil {
		t.Fatal(err)
	}
	moved("insert, update, delete", false)
	if _, err := c.CreateIndex("e", "e_tmp", "nosuch"); err == nil {
		t.Fatal("index over a missing column created")
	}
	moved("failed CreateIndex", false)
	if _, err := c.CreateIndex("e", "e_tmp", "tmp"); err != nil {
		t.Fatal(err)
	}
	moved("CreateIndex", true)
	if _, err := c.CreateTable("f", []Column{{Name: "id", Kind: KindInt}, {Name: "eid", Kind: KindInt, NotNull: true}}, "id"); err != nil {
		t.Fatal(err)
	}
	moved("CreateTable", true)
	if err := c.AddForeignKey("f", []string{"eid"}, "e", []string{"id"}); err != nil {
		t.Fatal(err)
	}
	moved("AddForeignKey", true)
	if err := c.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	moved("Restore", true)
}
