package rel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func mkCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	_, err := c.CreateTable("dept",
		[]Column{{Name: "id", Kind: KindInt}, {Name: "name", Kind: KindString}},
		"id")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.CreateTable("emp",
		[]Column{
			{Name: "id", Kind: KindInt},
			{Name: "dept_id", Kind: KindInt, NotNull: true},
			{Name: "salary", Kind: KindFloat},
		},
		"id")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCreateTableValidation(t *testing.T) {
	c := NewCatalog()
	if _, err := c.CreateTable("t", []Column{{Name: "a", Kind: KindInt}}); err == nil {
		t.Error("table without key must be rejected")
	}
	if _, err := c.CreateTable("t", []Column{{Name: "a", Kind: KindInt}}, "b"); err == nil {
		t.Error("key over missing column must be rejected")
	}
	if _, err := c.CreateTable("t", []Column{{Name: "a", Kind: KindInt}}, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("t", []Column{{Name: "a", Kind: KindInt}}, "a"); err == nil {
		t.Error("duplicate table must be rejected")
	}
	// Key column becomes NOT NULL.
	sch, _ := c.TableSchema("t")
	if !sch[0].NotNull {
		t.Error("key column should be NOT NULL")
	}
}

func TestInsertAndGet(t *testing.T) {
	c := mkCatalog(t)
	err := c.Insert("dept", []Row{
		{Int(1), Str("eng")},
		{Int(2), Str("sales")},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := c.Table("dept")
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	row, ok := d.Get(Int(1))
	if !ok || !row[1].Equal(Str("eng")) {
		t.Fatalf("Get(1) = %v, %v", row, ok)
	}
	if _, ok := d.Get(Int(99)); ok {
		t.Error("Get(99) should miss")
	}
}

func TestInsertRejectsDuplicateKey(t *testing.T) {
	c := mkCatalog(t)
	if err := c.Insert("dept", []Row{{Int(1), Str("a")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("dept", []Row{{Int(1), Str("b")}}); err == nil {
		t.Error("duplicate key across batches must be rejected")
	}
	err := c.Insert("dept", []Row{{Int(2), Str("a")}, {Int(2), Str("b")}})
	if err == nil {
		t.Error("duplicate key within a batch must be rejected")
	}
	if c.Table("dept").Len() != 1 {
		t.Error("failed batch must not be partially applied")
	}
}

func TestInsertRejectsBadRows(t *testing.T) {
	c := mkCatalog(t)
	if err := c.Insert("dept", []Row{{Int(1)}}); err == nil {
		t.Error("short row must be rejected")
	}
	if err := c.Insert("dept", []Row{{Null, Str("x")}}); err == nil {
		t.Error("NULL key must be rejected")
	}
	if err := c.Insert("dept", []Row{{Str("k"), Str("x")}}); err == nil {
		t.Error("kind mismatch must be rejected")
	}
	if err := c.Insert("dept", []Row{{Int(1), Null}}); err != nil {
		t.Errorf("NULL in nullable column must be accepted: %v", err)
	}
	if err := c.Insert("nosuch", []Row{{Int(1)}}); err == nil {
		t.Error("unknown table must be rejected")
	}
}

func TestForeignKeyEnforcement(t *testing.T) {
	c := mkCatalog(t)
	if err := c.Insert("dept", []Row{{Int(1), Str("eng")}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddForeignKey("emp", []string{"dept_id"}, "dept", []string{"id"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("emp", []Row{{Int(10), Int(1), Float(100)}}); err != nil {
		t.Fatalf("valid FK insert rejected: %v", err)
	}
	if err := c.Insert("emp", []Row{{Int(11), Int(99), Float(100)}}); err == nil {
		t.Error("dangling FK insert must be rejected")
	}
	// RESTRICT: referenced dept cannot be deleted.
	if _, err := c.Delete("dept", [][]Value{{Int(1)}}); err == nil {
		t.Error("delete of referenced row must be rejected")
	}
	// Delete child first, then parent.
	if _, err := c.Delete("emp", [][]Value{{Int(10)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("dept", [][]Value{{Int(1)}}); err != nil {
		t.Fatalf("delete after child removal: %v", err)
	}
}

func TestForeignKeyDeclarationValidation(t *testing.T) {
	c := mkCatalog(t)
	if err := c.AddForeignKey("emp", []string{"dept_id"}, "dept", []string{"name"}); err == nil {
		t.Error("FK must reference the unique key")
	}
	if err := c.AddForeignKey("emp", []string{"salary"}, "dept", []string{"id"}); err == nil {
		t.Error("nullable FK column must be rejected")
	}
	if err := c.AddForeignKey("emp", []string{"nosuch"}, "dept", []string{"id"}); err == nil {
		t.Error("missing FK column must be rejected")
	}
	if err := c.AddForeignKey("nosuch", []string{"x"}, "dept", []string{"id"}); err == nil {
		t.Error("unknown table must be rejected")
	}
	// Declaring an FK over data that violates it must fail.
	if err := c.Insert("emp", []Row{{Int(1), Int(42), Null}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddForeignKey("emp", []string{"dept_id"}, "dept", []string{"id"}); err == nil {
		t.Error("FK violated by existing rows must be rejected")
	}
}

func TestSecondaryIndex(t *testing.T) {
	c := mkCatalog(t)
	if err := c.Insert("dept", []Row{{Int(1), Str("eng")}, {Int(2), Str("eng")}, {Int(3), Str("ops")}}); err != nil {
		t.Fatal(err)
	}
	d := c.Table("dept")
	ix, err := c.CreateIndex("dept", "by_name", "name")
	if err != nil {
		t.Fatal(err)
	}
	if got := int(ix.Get([]byte(EncodeValues(Str("eng")))).Count); got != 2 {
		t.Errorf("eng bucket = %d rows, want 2", got)
	}
	// Index maintained under insert and delete.
	if err := c.Insert("dept", []Row{{Int(4), Str("eng")}}); err != nil {
		t.Fatal(err)
	}
	if got := int(ix.Get([]byte(EncodeValues(Str("eng")))).Count); got != 3 {
		t.Errorf("after insert: eng bucket = %d rows, want 3", got)
	}
	if _, err := c.Delete("dept", [][]Value{{Int(2)}, {Int(4)}}); err != nil {
		t.Fatal(err)
	}
	if got := int(ix.Get([]byte(EncodeValues(Str("eng")))).Count); got != 1 {
		t.Errorf("after delete: eng bucket = %d rows, want 1", got)
	}
	if got := int(ix.Get([]byte(EncodeValues(Str("ops")))).Count); got != 1 {
		t.Errorf("ops bucket = %d rows, want 1", got)
	}
	if d.IndexOnSet([]int{1}) != ix {
		t.Error("IndexOnSet should find the index")
	}
	if d.IndexOnSet([]int{0}) != nil {
		t.Error("IndexOnSet should miss for unindexed columns")
	}
}

// TestCreateIndexMovesDesignGeneration: an index is part of the physical
// design, so a successful CreateIndex moves the design generation (compiled
// programs recompile to use it) and a failed one changes nothing.
func TestCreateIndexMovesDesignGeneration(t *testing.T) {
	c := mkCatalog(t)
	before := c.DesignGeneration()
	if _, err := c.CreateIndex("dept", "by_name", "name"); err != nil {
		t.Fatal(err)
	}
	if got := c.DesignGeneration(); got <= before {
		t.Errorf("DesignGeneration() = %d after CreateIndex, want > %d", got, before)
	}
	before = c.DesignGeneration()
	if _, err := c.CreateIndex("nosuch", "ix", "name"); err == nil {
		t.Fatal("CreateIndex on unknown table should fail")
	}
	if _, err := c.CreateIndex("dept", "ix2", "nocol"); err == nil {
		t.Fatal("CreateIndex on unknown column should fail")
	}
	if got := c.DesignGeneration(); got != before {
		t.Errorf("DesignGeneration() = %d after failed CreateIndex, want %d", got, before)
	}
}

// TestDesignGenerationIgnoresDataCommits: a compiled program stays valid
// across data commits, so row mutations, publishes and rollbacks leave the
// design generation where CreateTable moved it.
func TestDesignGenerationIgnoresDataCommits(t *testing.T) {
	c := NewCatalog()
	g0 := c.DesignGeneration()
	if _, err := c.CreateTable("p", []Column{{Name: "k", Kind: KindInt}, {Name: "v", Kind: KindInt}}, "k"); err != nil {
		t.Fatal(err)
	}
	if c.DesignGeneration() == g0 {
		t.Fatal("CreateTable did not move the design generation")
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
		before := c.DesignGeneration()
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if c.DesignGeneration() != before {
			t.Errorf("%s moved the design generation", s.name)
		}
	}
}

func TestInsertCopiesRows(t *testing.T) {
	c := mkCatalog(t)
	row := Row{Int(1), Str("eng")}
	if err := c.Insert("dept", []Row{row}); err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's slice after Insert must not corrupt storage.
	row[1] = Str("hacked")
	got, _ := c.Table("dept").Get(Int(1))
	if !got[1].Equal(Str("eng")) {
		t.Errorf("stored row shares caller memory: %v", got)
	}
}

func TestDeleteValidation(t *testing.T) {
	c := mkCatalog(t)
	if err := c.Insert("dept", []Row{{Int(1), Str("a")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("dept", [][]Value{{Int(9)}}); err == nil {
		t.Error("delete of missing key must be rejected")
	}
	if _, err := c.Delete("dept", [][]Value{{Int(1), Int(2)}}); err == nil {
		t.Error("key arity mismatch must be rejected")
	}
	// A repeated key is rejected before any row goes: a failed Delete
	// leaves the table as it was.
	if _, err := c.Delete("dept", [][]Value{{Int(1)}, {Int(1)}}); err == nil || c.Table("dept").Len() != 1 {
		t.Fatalf("repeated-key delete: err %v, %d rows left", err, c.Table("dept").Len())
	}
	rows, err := c.Delete("dept", [][]Value{{Int(1)}})
	if err != nil || len(rows) != 1 || !rows[0][1].Equal(Str("a")) {
		t.Fatalf("Delete = %v, %v", rows, err)
	}
	if c.Table("dept").Len() != 0 {
		t.Error("row not removed")
	}
}

func TestRowHelpers(t *testing.T) {
	sch := Schema{
		{Table: "t", Name: "a", Kind: KindInt},
		{Table: "t", Name: "b", Kind: KindInt},
		{Table: "u", Name: "c", Kind: KindInt},
	}
	row := Row{Int(1), Null, Int(3)}
	if !row.NullExtendedOn(sch, "nosuch") {
		t.Error("vacuously null-extended on absent table")
	}
	if row.NullExtendedOn(sch, "t") {
		t.Error("t has a non-null column")
	}
	r2 := Row{Null, Null, Int(3)}
	if !r2.NullExtendedOn(sch, "t") {
		t.Error("all t columns NULL ⇒ null-extended")
	}
	if p := row.Project([]int{2, 0}); !p.Equal(Row{Int(3), Int(1)}) {
		t.Errorf("Project = %v", p)
	}
	cl := row.Clone()
	cl[0] = Int(9)
	if row[0].Equal(Int(9)) {
		t.Error("Clone must copy")
	}
	if sch.String() != "(t.a, t.b, u.c)" {
		t.Errorf("Schema.String = %s", sch.String())
	}
}

func TestSchemaOps(t *testing.T) {
	a := Schema{{Table: "t", Name: "x", Kind: KindInt}}
	b := Schema{{Table: "u", Name: "y", Kind: KindInt}}
	cc := a.Concat(b)
	if len(cc) != 2 || cc.IndexOf("u", "y") != 1 {
		t.Errorf("Concat = %v", cc)
	}
	defer func() {
		if recover() == nil {
			t.Error("Concat with duplicate column must panic")
		}
	}()
	_ = a.Concat(a)
}

func TestSchemaUnionAndTables(t *testing.T) {
	a := Schema{{Table: "t", Name: "x"}, {Table: "u", Name: "y"}}
	b := Schema{{Table: "u", Name: "y"}, {Table: "v", Name: "z"}}
	u := a.Union(b)
	if len(u) != 3 {
		t.Errorf("Union = %v", u)
	}
	tabs := u.Tables()
	if strings.Join(tabs, ",") != "t,u,v" {
		t.Errorf("Tables = %v", tabs)
	}
	if cols := u.TableColumns("u"); len(cols) != 1 || cols[0] != 1 {
		t.Errorf("TableColumns(u) = %v", cols)
	}
}

// TestIndexFollowsRows drives random inserts, updates (in both appliers,
// with and without a change to the indexed columns), deletes and update
// rollbacks against a table with two secondary indexes, publishing after
// every operation, and after each one checks that every bucket holds exactly
// the handles of the live rows with its key: Index.remove and Index.replace
// find a row by handle, and an update that moves no indexed column leaves
// the buckets alone.
func TestIndexFollowsRows(t *testing.T) {
	c := NewCatalog()
	if _, err := c.CreateTable("t", []Column{IntColumn("id"), IntColumn("g"), StrColumn("s")}, "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("t", "ix_g", "g"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("t", "ix_gs", "s", "g"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("t", "ix_g", "s"); err == nil || !strings.Contains(err.Error(), "index ix_g already exists") {
		t.Fatalf("duplicate index name: err = %v", err)
	}
	c.PublishEpochs()
	tab := c.Table("t")
	check := func(op int) {
		t.Helper()
		for _, ix := range tab.indexes {
			checkBuckets(t, tab, ix, fmt.Sprintf("op %d", op))
		}
	}
	rng := rand.New(rand.NewSource(3))
	words := []string{"x", "y"}
	for op := 0; op < 3000; op++ {
		id := Int(int64(rng.Intn(40)))
		key := []Value{id}
		old, exists := tab.Get(id)
		row := Row{id, Int(int64(rng.Intn(4))), Str(words[rng.Intn(2)])}
		if exists && rng.Intn(2) == 0 {
			row[1], row[2] = old[1], old[2] // an update that moves nothing
		}
		var err error
		switch {
		case !exists:
			err = c.Insert("t", []Row{row})
		case op%4 == 0:
			_, err = c.Delete("t", [][]Value{key})
		case op%4 == 1:
			_, err = c.Update("t", key, row)
		default:
			if _, err = c.Update("t", key, row); err == nil && op%4 == 3 {
				check(op)
				err = c.Rollback([]string{"t"})
			}
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		check(op)
		c.PublishEpochs()
	}
}

// TestTableIndexHotKey pins a table index at O(1) per row whatever the
// bucket size: 20 000 rows under one secondary-index key are inserted,
// deleted oldest-first — the far end of a chain that is pushed at the head —
// with a batch of the deletes rolled back on the way, and inserted again.
// Each mutation writes two links, so the link writes stay linear in the
// mutations where a bucket-as-slice searched the bucket for every delete.
func TestTableIndexHotKey(t *testing.T) {
	t.Run("hashed", func(t *testing.T) { tableIndexHotKey(t, 20_000, 1_000) })
	// With every key hashing alike the table's key index probes a run as
	// long as the table: fewer rows keep the test quick.
	t.Run("colliding", func(t *testing.T) {
		colliding(t)
		tableIndexHotKey(t, 2_000, 100)
	})
}

func tableIndexHotKey(t *testing.T, n, batch int) {
	c := NewCatalog()
	if _, err := c.CreateTable("t", []Column{IntColumn("id"), IntColumn("g")}, "id"); err != nil {
		t.Fatal(err)
	}
	ix, err := c.CreateIndex("t", "ix_g", "g")
	if err != nil {
		t.Fatal(err)
	}
	c.PublishEpochs()
	tab := c.Table("t")
	rows, keys := make([]Row, n), make([][]Value, n)
	for i := range rows {
		rows[i], keys[i] = Row{Int(int64(i)), Int(7)}, []Value{Int(int64(i))}
	}
	hot := []byte(EncodeValues(Int(7)))
	start := ix.chains.LinkOps()
	insertAll := func() {
		for _, r := range rows {
			if err := c.Insert("t", []Row{r}); err != nil {
				t.Fatal(err)
			}
		}
		c.PublishEpochs()
		checkBuckets(t, tab, ix, "insert")
		if got := int(ix.Get(hot).Count); got != n {
			t.Fatalf("hot bucket holds %d rows, want %d", got, n)
		}
	}
	deleteRange := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := c.Delete("t", keys[i:i+1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	insertAll()
	deleteRange(0, n/2)
	c.PublishEpochs()
	deleteRange(n/2, n/2+batch)
	checkBuckets(t, tab, ix, "staged deletes")
	if err := c.Rollback([]string{"t"}); err != nil {
		t.Fatal(err)
	}
	checkBuckets(t, tab, ix, "rollback")
	if got := int(ix.Get(hot).Count); got != n/2 {
		t.Fatalf("after the rollback the hot bucket holds %d rows, want %d", got, n/2)
	}
	deleteRange(n/2, n)
	c.PublishEpochs()
	checkBuckets(t, tab, ix, "delete")
	if ix.chains.Len() != 0 {
		t.Fatal("the emptied hot bucket kept its key")
	}
	insertAll()
	if got := int(tab.rows.Used()); got != n {
		t.Fatalf("re-insert handed out new handles: %d for %d rows", got, n)
	}
	mutations := 3*n + 2*batch
	if ops := ix.chains.LinkOps() - start; ops > 2*mutations {
		t.Fatalf("%d link writes for %d mutations on a hot key: not O(1) per row", ops, mutations)
	}
}

// TestIndexMaintenanceAllocs: filing a row under a key whose bucket exists,
// and taking it out while others stay, allocates nothing — a 1-row insert
// and the delete that undoes it cost a table with two secondary indexes
// what they cost the same table with none. A bucket-as-slice index encoded
// a fresh key string per index per row, and a long one (these keys are
// longer than the 32 bytes a conversion may borrow from the stack).
func TestIndexMaintenanceAllocs(t *testing.T) {
	const word = "a-string-index-key-of-some-length"
	cycle := func(indexed bool) float64 {
		c := NewCatalog()
		if _, err := c.CreateTable("t", []Column{IntColumn("id"), IntColumn("g"), StrColumn("s")}, "id"); err != nil {
			t.Fatal(err)
		}
		if indexed {
			if _, err := c.CreateIndex("t", "ix_g", "g"); err != nil {
				t.Fatal(err)
			}
			if _, err := c.CreateIndex("t", "ix_sg", "s", "g"); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			if err := c.Insert("t", []Row{{Int(int64(i)), Int(int64(i % 4)), Str(word)}}); err != nil {
				t.Fatal(err)
			}
		}
		return insertDeleteAllocs(t, c, "t", Row{Int(1000), Int(1), Str(word)})
	}
	plain, indexed := cycle(false), cycle(true)
	t.Logf("insert and delete of one row: %.0f allocations without indexes, %.0f with two", plain, indexed)
	if indexed != plain {
		t.Errorf("two indexes add %.0f allocations to a 1-row insert and delete over existing buckets, want 0", indexed-plain)
	}

	// A row whose index key no other row has creates a bucket and empties
	// it again, which must cost what filing it under an existing bucket
	// costs: no key is stored, so none is copied, even one longer than the
	// 32 bytes a conversion may borrow from the stack.
	fresh := func(s string) float64 {
		c := NewCatalog()
		if _, err := c.CreateTable("t", []Column{IntColumn("id"), StrColumn("s")}, "id"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CreateIndex("t", "ix_s", "s"); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert("t", []Row{{Int(0), Str(word)}}); err != nil {
			t.Fatal(err)
		}
		return insertDeleteAllocs(t, c, "t", Row{Int(1), Str(s)})
	}
	existing, short, long := fresh(word), fresh("k"), fresh(word+"-fresh")
	t.Logf("insert and delete of one row: %.0f allocations under an existing bucket, %.0f under a fresh short key, %.0f under a fresh long one", existing, short, long)
	if short != existing || long != existing {
		t.Errorf("creating and emptying a bucket adds %.0f allocations on a short key and %.0f on a %d-byte one to a 1-row insert and delete, want 0",
			short-existing, long-existing, len(EncodeValues(Str(word+"-fresh"))))
	}

	// Deleting a row of a table that a foreign key references probes the
	// referencing table's index for the row's key (RESTRICT), which must
	// allocate nothing: the probe key stays on the stack.
	restrict := func(fk bool) float64 {
		c := NewCatalog()
		if _, err := c.CreateTable("p", []Column{IntColumn("id")}, "id"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CreateTable("c", []Column{IntColumn("id"), {Name: "pid", Kind: KindInt, NotNull: true}}, "id"); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert("p", []Row{{Int(1)}}); err != nil {
			t.Fatal(err)
		}
		if fk {
			if err := c.AddForeignKey("c", []string{"pid"}, "p", []string{"id"}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Insert("c", []Row{{Int(1), Int(1)}}); err != nil {
			t.Fatal(err)
		}
		return insertDeleteAllocs(t, c, "p", Row{Int(2)})
	}
	free, checked := restrict(false), restrict(true)
	t.Logf("insert and delete of one referenced-table row: %.0f allocations without a foreign key, %.0f with one", free, checked)
	if checked != free {
		t.Errorf("the RESTRICT probe adds %.0f allocations to a 1-row insert and delete, want 0", checked-free)
	}
}

// insertDeleteAllocs returns the allocations of inserting row into table
// and deleting it again, by its first column as the key.
func insertDeleteAllocs(t *testing.T, c *Catalog, table string, row Row) float64 {
	key := [][]Value{{row[0]}}
	return testing.AllocsPerRun(200, func() {
		if err := c.Insert(table, []Row{row}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Delete(table, key); err != nil {
			t.Fatal(err)
		}
	})
}

// checkBuckets fails unless ix's chains pass Chains.Check and every bucket
// holds exactly the handles of tab's live rows with the bucket's key, in no
// more link chunks than the slab has.
func checkBuckets(t testing.TB, tab *Table, ix *Index, what string) {
	t.Helper()
	n := 0
	keyOf := func(h int32) string { return EncodeRowCols(tab.Row(h), ix.cols) }
	chunks, err := ix.chains.Check(keyOf, func(key string, h int32) {
		if r := tab.Row(h); r == nil || handleOf(tab, tab.KeyOf(r)) != h {
			t.Fatalf("%s: index %s bucket holds handle %d (%v), which is not a live row", what, ix.name, h, r)
		}
		n++
	})
	if err != nil {
		t.Fatalf("%s: index %s: %v", what, ix.name, err)
	}
	if n != tab.rows.Len() {
		t.Fatalf("%s: index %s holds %d rows, table %d", what, ix.name, n, tab.rows.Len())
	}
	if want := (int(tab.rows.Used()) + SlabChunk - 1) / SlabChunk; chunks > want {
		t.Fatalf("%s: index %s: %d link chunks for %d handles", what, ix.name, chunks, tab.rows.Used())
	}
}
