package rel

import (
	"strings"
	"testing"
)

// rollbackFixture builds a two-column table with a secondary index and a few
// seed rows.
func rollbackFixture(t *testing.T) (*Catalog, *Table, *Index) {
	t.Helper()
	c := NewCatalog()
	tab, err := c.CreateTable("p", []Column{
		{Name: "k", Kind: KindInt},
		{Name: "v", Kind: KindInt},
	}, "k")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := c.CreateIndex("p", "p_v", "v")
	if err != nil {
		t.Fatal(err)
	}
	seed := []Row{
		{Int(1), Int(10)},
		{Int(2), Int(20)},
		{Int(3), Int(10)},
	}
	if err := c.Insert("p", seed); err != nil {
		t.Fatal(err)
	}
	return c, tab, ix
}

func TestRollbackInsert(t *testing.T) {
	c, tab, ix := rollbackFixture(t)
	batch := []Row{{Int(4), Int(40)}, {Int(5), Int(10)}}
	if err := c.Insert("p", batch); err != nil {
		t.Fatal(err)
	}
	if err := c.RollbackInsert("p", batch); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 {
		t.Fatalf("table has %d rows after rollback, want 3", tab.Len())
	}
	for _, row := range batch {
		if _, ok := tab.Get(row[0]); ok {
			t.Errorf("row %s still present after rollback", row)
		}
	}
	// The secondary index must forget the batch too: v=10 had two seed rows
	// plus one batch row, v=40 only the batch row.
	if n := len(ix.Lookup(EncodeValues(Int(10)))); n != 2 {
		t.Errorf("index lookup v=10 returned %d rows, want 2", n)
	}
	if n := len(ix.Lookup(EncodeValues(Int(40)))); n != 0 {
		t.Errorf("index lookup v=40 returned %d rows, want 0", n)
	}

	// Rolling back rows that are no longer present reports the interleaved
	// mutation instead of silently continuing.
	err := c.RollbackInsert("p", batch)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("second rollback: got %v, want missing-row error", err)
	}
	if err := c.RollbackInsert("nope", nil); err == nil {
		t.Fatal("rollback on unknown table succeeded")
	}
}

func TestRollbackDelete(t *testing.T) {
	c, tab, ix := rollbackFixture(t)
	deleted, err := c.Delete("p", [][]Value{{Int(1)}, {Int(3)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RollbackDelete("p", deleted); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 {
		t.Fatalf("table has %d rows after rollback, want 3", tab.Len())
	}
	for _, row := range deleted {
		got, ok := tab.Get(row[0])
		if !ok || EncodeValues(got...) != EncodeValues(row...) {
			t.Errorf("row %s not restored (got %v, %v)", row, got, ok)
		}
	}
	if n := len(ix.Lookup(EncodeValues(Int(10)))); n != 2 {
		t.Errorf("index lookup v=10 returned %d rows, want 2", n)
	}

	// Restoring a row whose key is occupied again is the interleaved-
	// mutation error case.
	err = c.RollbackDelete("p", deleted)
	if err == nil {
		t.Fatal("rollback over occupied keys succeeded")
	}
	if err := c.RollbackDelete("nope", nil); err == nil {
		t.Fatal("rollback on unknown table succeeded")
	}
}

func TestRollbackUpdate(t *testing.T) {
	c, tab, ix := rollbackFixture(t)
	old, err := c.Update("p", []Value{Int(2)}, Row{Int(2), Int(99)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RollbackUpdate("p", []Value{Int(2)}, old); err != nil {
		t.Fatal(err)
	}
	got, ok := tab.Get(Int(2))
	if !ok || !got[1].Equal(Int(20)) {
		t.Fatalf("old row not restored: got %v, %v", got, ok)
	}
	if n := len(ix.Lookup(EncodeValues(Int(99)))); n != 0 {
		t.Errorf("index still holds the rolled-back value: %d rows", n)
	}
	if n := len(ix.Lookup(EncodeValues(Int(20)))); n != 1 {
		t.Errorf("index lookup v=20 returned %d rows, want 1", n)
	}

	if err := c.RollbackUpdate("p", []Value{Int(42)}, old); err == nil {
		t.Fatal("rollback of a missing key succeeded")
	}
	if err := c.RollbackUpdate("nope", []Value{Int(2)}, old); err == nil {
		t.Fatal("rollback on unknown table succeeded")
	}
}

// TestRollbackSkipsConstraintChecks pins the documented contract: rollback
// restores the pre-batch state even when the forward direction would now be
// rejected (here, re-inserting a referenced parent's child rows).
func TestRollbackSkipsConstraintChecks(t *testing.T) {
	c := NewCatalog()
	if _, err := c.CreateTable("parent", []Column{{Name: "k", Kind: KindInt}}, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("child", []Column{
		{Name: "k", Kind: KindInt},
		{Name: "pk", Kind: KindInt, NotNull: true},
	}, "k"); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("parent", []Row{{Int(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddForeignKey("child", []string{"pk"}, "parent", []string{"k"}); err != nil {
		t.Fatal(err)
	}
	rows := []Row{{Int(10), Int(1)}}
	if err := c.Insert("child", rows); err != nil {
		t.Fatal(err)
	}
	// Forward-deleting the parent is blocked by RESTRICT while the child
	// exists; rollback of the child insert has no such gate and must restore
	// the childless state that then allows the delete.
	if _, err := c.Delete("parent", [][]Value{{Int(1)}}); err == nil {
		t.Fatal("deleting a referenced parent succeeded")
	}
	if err := c.RollbackInsert("child", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("parent", [][]Value{{Int(1)}}); err != nil {
		t.Fatalf("delete after rollback: %v", err)
	}
}
