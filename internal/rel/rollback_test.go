package rel

import (
	"strings"
	"testing"
)

// rollbackFixture builds a two-column table with a secondary index and a few
// seed rows, and publishes them: a rollback returns the table to its last
// published epoch.
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
	c.PublishEpochs()
	return c, tab, ix
}

// handles maps every live key of tab to its handle.
func handles(tab *Table) map[string]int32 {
	out := make(map[string]int32, tab.rows.Len())
	tab.rows.Handles(func(h int32) bool {
		out[tab.rows.At(h).Key] = h
		return true
	})
	return out
}

// handleOf returns the handle tab links under the encoded key k, NoHandle
// when none: how the tests read a table's key index.
func handleOf(tab *Table, k string) int32 {
	if h, ok := tab.rows.Lookup(k); ok {
		return h
	}
	return NoHandle
}

// sameHandles fails unless tab holds exactly the keys of want, each at the
// handle want names.
func sameHandles(t *testing.T, tab *Table, want map[string]int32) {
	t.Helper()
	if tab.rows.Len() != len(want) {
		t.Fatalf("table has %d rows, want %d", tab.rows.Len(), len(want))
	}
	for k, h := range want {
		if got := handleOf(tab, k); got != h {
			t.Fatalf("key %x at handle %d, want %d", k, got, h)
		}
	}
}

func TestRollbackInsert(t *testing.T) {
	c, tab, ix := rollbackFixture(t)
	before := handles(tab)
	batch := []Row{{Int(4), Int(40)}, {Int(5), Int(10)}}
	if err := c.Insert("p", batch); err != nil {
		t.Fatal(err)
	}
	if err := c.Rollback([]string{"p"}); err != nil {
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
	sameHandles(t, tab, before)
	// The secondary index must forget the batch too: v=10 had two seed rows
	// plus one batch row, v=40 only the batch row.
	if n := int(ix.Get([]byte(EncodeValues(Int(10)))).Count); n != 2 {
		t.Errorf("index lookup v=10 returned %d rows, want 2", n)
	}
	if n := int(ix.Get([]byte(EncodeValues(Int(40)))).Count); n != 0 {
		t.Errorf("index lookup v=40 returned %d rows, want 0", n)
	}

	// The log is spent: rolling back again changes nothing.
	if err := c.Rollback([]string{"p"}); err != nil {
		t.Fatalf("second rollback: %v", err)
	}
	sameHandles(t, tab, before)
	if err := c.Rollback([]string{"nope"}); err == nil {
		t.Fatal("rollback on unknown table succeeded")
	}
}

func TestRollbackDelete(t *testing.T) {
	c, tab, ix := rollbackFixture(t)
	before := handles(tab)
	deleted, err := c.Delete("p", [][]Value{{Int(1)}, {Int(3)}})
	if err != nil {
		t.Fatal(err)
	}
	// The deleted rows' slots wait for the publish: re-inserting their keys
	// takes fresh handles.
	if err := c.Insert("p", deleted); err != nil {
		t.Fatal(err)
	}
	for _, row := range deleted {
		if h := handleOf(tab, tab.KeyOf(row)); h == before[tab.KeyOf(row)] {
			t.Fatalf("row %s re-inserted at handle %d before its delete published", row, h)
		}
	}
	if err := c.Rollback([]string{"p"}); err != nil {
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
	sameHandles(t, tab, before)
	if n := int(ix.Get([]byte(EncodeValues(Int(10)))).Count); n != 2 {
		t.Errorf("index lookup v=10 returned %d rows, want 2", n)
	}

	// A catalog that never published keeps no log, so it has nothing to
	// roll back to.
	bare := NewCatalog()
	if _, err := bare.CreateTable("p", []Column{{Name: "k", Kind: KindInt}}, "k"); err != nil {
		t.Fatal(err)
	}
	if err := bare.Rollback([]string{"p"}); err == nil || !strings.Contains(err.Error(), "never published") {
		t.Fatalf("rollback of an unpublished catalog: got %v, want a no-log error", err)
	}
	if err := c.Rollback([]string{"nope"}); err == nil {
		t.Fatal("rollback on unknown table succeeded")
	}
}

func TestRollbackUpdate(t *testing.T) {
	c, tab, ix := rollbackFixture(t)
	before := handles(tab)
	if _, err := c.Update("p", []Value{Int(2)}, Row{Int(2), Int(99)}); err != nil {
		t.Fatal(err)
	}
	// An update keeps its handle, and a second one logs the first's row.
	if _, err := c.Update("p", []Value{Int(2)}, Row{Int(2), Int(98)}); err != nil {
		t.Fatal(err)
	}
	sameHandles(t, tab, before)
	if err := c.Rollback([]string{"p"}); err != nil {
		t.Fatal(err)
	}
	got, ok := tab.Get(Int(2))
	if !ok || !got[1].Equal(Int(20)) {
		t.Fatalf("old row not restored: got %v, %v", got, ok)
	}
	sameHandles(t, tab, before)
	for _, v := range []int64{98, 99} {
		if n := int(ix.Get([]byte(EncodeValues(Int(v)))).Count); n != 0 {
			t.Errorf("index still holds the rolled-back value %d: %d rows", v, n)
		}
	}
	if n := int(ix.Get([]byte(EncodeValues(Int(20)))).Count); n != 1 {
		t.Errorf("index lookup v=20 returned %d rows, want 1", n)
	}

	// Rolling back an unchanged table is a no-op; an unknown one fails.
	if err := c.Rollback([]string{"p"}); err != nil {
		t.Fatalf("rollback of an unchanged table: %v", err)
	}
	if err := c.Rollback([]string{"nope"}); err == nil {
		t.Fatal("rollback on unknown table succeeded")
	}
}

// TestRollbackSkipsConstraintChecks pins the documented contract: rollback
// restores the published state even when the forward direction would now be
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
	c.PublishEpochs()
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
	if err := c.Rollback([]string{"child", "parent"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("parent", [][]Value{{Int(1)}}); err != nil {
		t.Fatalf("delete after rollback: %v", err)
	}
}
