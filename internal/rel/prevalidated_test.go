package rel

import (
	"strings"
	"testing"
)

// fkFixture builds parent/child tables with a foreign key, for exercising
// the prevalidated appliers against constraint-bearing state.
func fkFixture(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	if _, err := c.CreateTable("parent", []Column{
		{Name: "k", Kind: KindInt},
		{Name: "v", Kind: KindString},
	}, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("child", []Column{
		{Name: "k", Kind: KindInt},
		{Name: "pk", Kind: KindInt, NotNull: true},
	}, "k"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddForeignKey("child", []string{"pk"}, "parent", []string{"k"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("parent", []Row{{Int(1), Str("a")}, {Int(2), Str("b")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("child", []Row{{Int(10), Int(1)}}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestVersionCounts pins the guard's contract: every committed change —
// row mutations, rollbacks, schema changes — moves the version, and failed
// mutations do not.
func TestVersionCounts(t *testing.T) {
	c := NewCatalog()
	v0 := c.Version()
	tab, err := c.CreateTable("p", []Column{{Name: "k", Kind: KindInt}, {Name: "v", Kind: KindInt}}, "k")
	if err != nil {
		t.Fatal(err)
	}
	if c.Version() == v0 {
		t.Fatal("CreateTable did not move the version")
	}
	steps := []struct {
		name string
		do   func() error
	}{
		{"insert", func() error { return c.Insert("p", []Row{{Int(1), Int(10)}}) }},
		{"publish", func() error { c.PublishEpochs(); return nil }},
		{"update", func() error { _, err := c.Update("p", []Value{Int(1)}, Row{Int(1), Int(11)}); return err }},
		{"delete", func() error { _, err := c.Delete("p", [][]Value{{Int(1)}}); return err }},
		{"rollback", func() error { return c.Rollback([]string{"p"}) }},
		{"publish-tables", func() error { c.PublishTableEpochs([]string{"p"}); return nil }},
	}
	for _, s := range steps {
		before := c.Version()
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if c.Version() == before {
			t.Errorf("%s did not move the version", s.name)
		}
	}
	// A failed mutation leaves the version alone.
	before := c.Version()
	if err := c.Insert("p", []Row{{Int(5), Int(50)}, {Int(5), Int(51)}}); err == nil {
		t.Fatal("duplicate insert unexpectedly succeeded")
	}
	if c.Version() != before {
		t.Error("failed insert moved the version")
	}
	_ = tab
}

func TestPrevalidatedInsert(t *testing.T) {
	c := fkFixture(t)
	tab := c.Table("child")
	rows := []Row{{Int(11), Int(2)}, {Int(12), Int(1)}}
	keys := []string{tab.KeyOf(rows[0]), tab.KeyOf(rows[1])}
	before := c.Version()
	if err := c.InsertPrevalidated("child", rows, keys); err != nil {
		t.Fatal(err)
	}
	if c.Version() == before {
		t.Error("prevalidated insert did not move the version")
	}
	if tab.Len() != 3 {
		t.Fatalf("child has %d rows, want 3", tab.Len())
	}
	// The rows are findable through the FK index, i.e. index maintenance ran.
	ix := tab.IndexOnSet([]int{1})
	if ix == nil || len(ix.Lookup(EncodeValues(Int(1)))) != 2 {
		t.Fatal("FK index does not reflect the prevalidated insert")
	}
	// The defensive duplicate probe still fires, and applies nothing.
	err := c.InsertPrevalidated("child", []Row{{Int(20), Int(1)}, {Int(11), Int(1)}},
		[]string{tab.KeyOf(Row{Int(20), Int(1)}), keys[0]})
	if err == nil || !strings.Contains(err.Error(), "stale prevalidation") {
		t.Fatalf("stale duplicate insert: err = %v", err)
	}
	if tab.Len() != 3 {
		t.Fatalf("failed prevalidated insert applied rows: %d", tab.Len())
	}
}

func TestPrevalidatedUpdate(t *testing.T) {
	c := fkFixture(t)
	tab := c.Table("child")
	enc := tab.KeyOf(Row{Int(10), Int(1)})
	old, err := c.UpdatePrevalidated("child", enc, Row{Int(10), Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !old.Equal(Row{Int(10), Int(1)}) {
		t.Fatalf("old row = %s", old)
	}
	got, ok := tab.GetEncoded(enc)
	if !ok || !got.Equal(Row{Int(10), Int(2)}) {
		t.Fatalf("updated row = %s, ok=%v", got, ok)
	}
	ix := tab.IndexOnSet([]int{1})
	if len(ix.Lookup(EncodeValues(Int(1)))) != 0 || len(ix.Lookup(EncodeValues(Int(2)))) != 1 {
		t.Fatal("FK index does not reflect the prevalidated update")
	}
	if _, err := c.UpdatePrevalidated("child", tab.KeyOf(Row{Int(99), Int(1)}), Row{Int(99), Int(1)}); err == nil {
		t.Fatal("update of missing row unexpectedly succeeded")
	}
}

func TestPrevalidatedDelete(t *testing.T) {
	c := fkFixture(t)
	// RESTRICT is never skipped: parent 1 is still referenced by child 10.
	pk := c.Table("parent").KeyOf(Row{Int(1), Str("a")})
	if _, err := c.DeletePrevalidated("parent", [][]Value{{Int(1)}}, []string{pk}); err == nil ||
		!strings.Contains(err.Error(), "referenced by") {
		t.Fatalf("RESTRICT not enforced on prevalidated delete: %v", err)
	}
	// Deleting the child first unblocks the parent.
	ck := c.Table("child").KeyOf(Row{Int(10), Int(1)})
	got, err := c.DeletePrevalidated("child", [][]Value{{Int(10)}}, []string{ck})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Equal(Row{Int(10), Int(1)}) {
		t.Fatalf("deleted rows = %v", got)
	}
	if _, err := c.DeletePrevalidated("parent", [][]Value{{Int(1)}}, []string{pk}); err != nil {
		t.Fatal(err)
	}
	if c.Table("parent").Len() != 1 {
		t.Fatalf("parent has %d rows, want 1", c.Table("parent").Len())
	}
	// Deleting an already-missing row fails cleanly.
	if _, err := c.DeletePrevalidated("parent", [][]Value{{Int(1)}}, []string{pk}); err == nil {
		t.Fatal("delete of missing row unexpectedly succeeded")
	}
}
