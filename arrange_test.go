package ojv_test

import (
	"bytes"
	"math/rand"
	"testing"

	"ojv"
	"ojv/internal/algebra"
	"ojv/internal/fixture"
	"ojv/internal/rel"
	"ojv/internal/tpch"
)

// Arrangements (DESIGN.md §16): CreateView gives every equijoin its
// maintenance probes a maintained index, shared and reference-counted
// across views. The tests here drive the lifecycle through the facade and
// look at the catalog underneath (ojv.WrapCatalog hands the test the same
// *rel.Catalog the database writes; the test only reads it between calls).

// abView registers A ⟕ B on the join attributes, with A under a selection
// when lt > 0 (so two such views probe the same columns through different
// ΔV^D trees).
func abView(t *testing.T, db *ojv.Database, cat *rel.Catalog, name string, lt int64) *ojv.View {
	t.Helper()
	a := ojv.Table("A")
	if lt > 0 {
		a = a.Where(ojv.Cmp("A", "Av", algebra.OpLt, ojv.Int(lt)))
	}
	expr := a.LeftJoin(ojv.Table("B"), ojv.Eq("A", "Aj", "B", "Bj"))
	v, err := db.CreateView(name, expr, fixture.RandOutput(cat, expr.Expr()))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// onSet returns the table's index over exactly the named column, or nil.
func onSet(cat *rel.Catalog, table, col string) *rel.Index {
	tab := cat.Table(table)
	return tab.IndexOnSet([]int{tab.Schema().MustIndexOf(table, col)})
}

// churn runs one insert and one delete per table through the database and
// checks the views against recomputation.
func churn(t *testing.T, db *ojv.Database, rng *rand.Rand, key int64, views ...*ojv.View) {
	t.Helper()
	for i, table := range []string{"A", "B"} {
		row := fixture.RandRow(rng, key+int64(i))
		if err := db.Insert(table, []ojv.Row{row}); err != nil {
			t.Fatal(err)
		}
		for _, v := range views {
			if err := v.Check(); err != nil {
				t.Fatalf("after insert into %s: view %s: %v", table, v.Name(), err)
			}
		}
		if _, err := db.Delete(table, [][]ojv.Value{{row[0]}}); err != nil {
			t.Fatal(err)
		}
		for _, v := range views {
			if err := v.Check(); err != nil {
				t.Fatalf("after delete from %s: view %s: %v", table, v.Name(), err)
			}
		}
	}
}

// TestArrangementSharedAndReleased: two views over the same unindexed join
// attributes share one index per (table, column set); dropping one view
// keeps it, dropping the second removes it, a third view re-creates it. The
// views equal recomputation after every step and after statements between.
func TestArrangementSharedAndReleased(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cat, err := fixture.RandCatalogNoIndex(rng, 30)
	if err != nil {
		t.Fatal(err)
	}
	db := ojv.WrapCatalog(cat)
	counts := func() [2]int { return [2]int{len(cat.Table("A").Indexes()), len(cat.Table("B").Indexes())} }
	if got := counts(); got != [2]int{} {
		t.Fatalf("index-less fixture has indexes: %v", got)
	}

	v1 := abView(t, db, cat, "v1", 0)
	if got := counts(); got != [2]int{1, 1} {
		t.Fatalf("after v1: %v indexes on A, B; want one arrangement each", got)
	}
	aj, bj := onSet(cat, "A", "Aj"), onSet(cat, "B", "Bj")
	if aj == nil || bj == nil || aj.Pinned() || bj.Pinned() {
		t.Fatalf("v1 did not arrange A(Aj) and B(Bj) as unpinned indexes: %v %v", aj, bj)
	}
	churn(t, db, rng, 1000, v1)

	v2 := abView(t, db, cat, "v2", 60)
	if got := counts(); got != [2]int{1, 1} {
		t.Fatalf("after v2: %v indexes on A, B; the second view must share, not add", got)
	}
	if onSet(cat, "A", "Aj") != aj || onSet(cat, "B", "Bj") != bj {
		t.Fatal("the second view replaced the arrangements instead of sharing them")
	}
	churn(t, db, rng, 1010, v1, v2)

	db.DropView("v1")
	if onSet(cat, "A", "Aj") != aj || onSet(cat, "B", "Bj") != bj {
		t.Fatal("dropping one of two holders dropped the arrangement")
	}
	churn(t, db, rng, 1020, v2)

	db.DropView("v2")
	if got := counts(); got != [2]int{} {
		t.Fatalf("after the last holder is dropped: %v indexes on A, B; want none", got)
	}
	// Base tables keep working with no index to maintain.
	churn(t, db, rng, 1030)

	v3 := abView(t, db, cat, "v3", 40)
	if got := counts(); got != [2]int{1, 1} {
		t.Fatalf("after v3: %v indexes on A, B; a new view must re-create the arrangements", got)
	}
	if onSet(cat, "B", "Bj") == bj {
		t.Fatal("the dropped arrangement came back instead of a rebuilt one")
	}
	churn(t, db, rng, 1040, v3)
}

// parentChildDB builds p(pk, g) and c(ck, pfk NOT NULL, x) with every child
// referencing an existing parent, so c.pfk → p.pk can be declared later.
func parentChildDB(t *testing.T) (*ojv.Database, *rel.Catalog) {
	t.Helper()
	cat := rel.NewCatalog()
	db := ojv.WrapCatalog(cat)
	db.MustCreateTable("p", ojv.Cols(ojv.IntCol("pk"), ojv.IntCol("g")), "pk")
	db.MustCreateTable("c", ojv.Cols(ojv.IntCol("ck"), ojv.NotNull(ojv.IntCol("pfk")), ojv.IntCol("x")), "ck")
	var parents, children []ojv.Row
	for i := int64(0); i < 20; i++ {
		parents = append(parents, ojv.Row{ojv.Int(i), ojv.Int(i % 3)})
	}
	for i := int64(0); i < 60; i++ {
		children = append(children, ojv.Row{ojv.Int(i), ojv.Int(i % 10), ojv.Int(i)})
	}
	if err := db.Insert("p", parents); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("c", children); err != nil {
		t.Fatal(err)
	}
	return db, cat
}

func pcView(t *testing.T, db *ojv.Database, name string) *ojv.View {
	t.Helper()
	v, err := db.CreateView(name,
		ojv.Table("p").LeftJoin(ojv.Table("c"), ojv.Eq("p", "pk", "c", "pfk")),
		ojv.Columns("p.pk", "p.g", "c.ck", "c.pfk", "c.x"))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// savedCatalog round-trips the database through Save and loads the stream
// into a fresh catalog.
func savedCatalog(t *testing.T, db *ojv.Database) *rel.Catalog {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cat, err := rel.LoadCatalog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestArrangementPinning: an arrangement a user names (CreateIndex on the
// arranged column set) or a constraint adopts (AddForeignKey over it)
// becomes declared state — it survives the DropView of every holder, it is
// saved, and the foreign key it validates keeps refusing RESTRICT-violating
// deletes. An index that was only ever an arrangement is derived state: it
// is absent from a saved stream, and re-creating the view re-derives it.
func TestArrangementPinning(t *testing.T) {
	t.Run("DerivedStateIsNotSaved", func(t *testing.T) {
		db, cat := parentChildDB(t)
		pcView(t, db, "pc")
		if ix := onSet(cat, "c", "pfk"); ix == nil || ix.Pinned() {
			t.Fatalf("pc did not arrange c(pfk): %v", ix)
		}
		loaded := savedCatalog(t, db)
		if n := len(loaded.Table("c").Indexes()); n != 0 {
			t.Fatalf("the saved stream carries %d index(es) on c; an arrangement is derived state", n)
		}
		db2 := ojv.WrapCatalog(loaded)
		v := pcView(t, db2, "pc")
		if ix := onSet(loaded, "c", "pfk"); ix == nil || ix.Pinned() || ix.Name() != onSet(cat, "c", "pfk").Name() {
			t.Fatalf("re-creating the view did not re-derive the arrangement: %v", ix)
		}
		if err := v.Check(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("CreateIndex", func(t *testing.T) {
		db, cat := parentChildDB(t)
		v := pcView(t, db, "pc")
		arranged := onSet(cat, "c", "pfk")
		if err := db.CreateIndex("c", "c_pfk", "pfk"); err != nil {
			t.Fatal(err)
		}
		if got := cat.Table("c").Indexes(); len(got) != 1 || got[0] != arranged || !arranged.Pinned() || arranged.Name() != "c_pfk" {
			t.Fatalf("CreateIndex over an arranged set must adopt and rename it, not build a twin: %d indexes, %q pinned=%v",
				len(got), arranged.Name(), arranged.Pinned())
		}
		if err := db.Insert("p", []ojv.Row{{ojv.Int(100), ojv.Int(1)}}); err != nil {
			t.Fatal(err)
		}
		if err := v.Check(); err != nil {
			t.Fatal(err)
		}
		db.DropView("pc")
		if onSet(cat, "c", "pfk") != arranged {
			t.Fatal("a declared index was dropped with the view that had arranged it")
		}
		if ix := onSet(savedCatalog(t, db), "c", "pfk"); ix == nil || ix.Name() != "c_pfk" {
			t.Fatalf("the declared index did not round-trip through Save: %v", ix)
		}
	})
	t.Run("AddForeignKey", func(t *testing.T) {
		db, cat := parentChildDB(t)
		pcView(t, db, "pc")
		pcView(t, db, "pc2")
		arranged := onSet(cat, "c", "pfk")
		if err := db.AddForeignKey("c", []string{"pfk"}, "p", []string{"pk"}); err != nil {
			t.Fatal(err)
		}
		if got := cat.Table("c").Indexes(); len(got) != 1 || got[0] != arranged || !arranged.Pinned() {
			t.Fatalf("AddForeignKey must adopt the arrangement as its validation index: %d indexes, pinned=%v", len(got), arranged.Pinned())
		}
		db.DropView("pc")
		db.DropView("pc2")
		if onSet(cat, "c", "pfk") != arranged {
			t.Fatal("the foreign key's validation index was dropped with its last view")
		}
		// The index is still maintained: a new child of parent 15 (which had
		// none) must make that parent undeletable.
		if err := db.Insert("c", []ojv.Row{{ojv.Int(1000), ojv.Int(15), ojv.Int(0)}}); err != nil {
			t.Fatal(err)
		}
		for _, pk := range []int64{3, 15} {
			if _, err := db.Delete("p", [][]ojv.Value{{ojv.Int(pk)}}); err == nil {
				t.Fatalf("deleting referenced parent %d was not refused", pk)
			}
		}
		if _, err := db.Delete("p", [][]ojv.Value{{ojv.Int(16)}}); err != nil {
			t.Fatalf("deleting an unreferenced parent: %v", err)
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		reopened, err := ojv.OpenSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reopened.Delete("p", [][]ojv.Value{{ojv.Int(15)}}); err == nil {
			t.Fatal("after Save/OpenSnapshot the referenced parent is deletable")
		}
		if ix := onSet(savedCatalog(t, db), "c", "pfk"); ix == nil || !ix.Pinned() {
			t.Fatalf("the adopted index did not round-trip through Save: %v", ix)
		}
	})
}

// TestFailedRegistrationHoldsNothing: a CreateView that fails acquires no
// arrangement. A duplicate name fails before anything is derived — the
// catalog's indexes and design generation stand — and the registered view's
// next statement still checks out. (A registration that fails after Arrange
// is internal/view's TestArrangeReleasedOnFailedRegistration: nothing in the
// facade can make Materialize fail once the plans verified.)
func TestFailedRegistrationHoldsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cat, err := fixture.RandCatalogNoIndex(rng, 20)
	if err != nil {
		t.Fatal(err)
	}
	db := ojv.WrapCatalog(cat)
	v := abView(t, db, cat, "v", 0)
	gen := cat.DesignGeneration()
	// Same name, a definition that would arrange C(Cj) if it got that far.
	dup := ojv.Table("A").LeftJoin(ojv.Table("C"), ojv.Eq("A", "Aj", "C", "Cj"))
	if _, err := db.CreateView("v", dup, fixture.RandOutput(cat, dup.Expr())); err == nil {
		t.Fatal("duplicate view name accepted")
	}
	if n := len(cat.Table("C").Indexes()); n != 0 || cat.DesignGeneration() != gen {
		t.Fatalf("the refused registration left %d index(es) on C and moved the design generation %d → %d",
			n, gen, cat.DesignGeneration())
	}
	churn(t, db, rng, 500, v)
}

// TestNoArrangementWhereIndexesAreDeclared: on TPC-H every join column of V3
// is a unique key or carries its foreign key's index, so CreateView derives
// nothing — the three TPC-H benchmark workloads run on exactly the physical
// design they had.
func TestNoArrangementWhereIndexesAreDeclared(t *testing.T) {
	tdb, err := tpch.Generate(tpch.Config{ScaleFactor: 0.001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cat := tdb.Catalog
	count := func() (n int) {
		for _, name := range cat.TableNames() {
			n += len(cat.Table(name).Indexes())
		}
		return n
	}
	before, gen := count(), cat.DesignGeneration()
	db := ojv.WrapCatalog(cat)
	v, err := db.CreateView("v3", ojv.ExprRel(tpch.V3Expr()), tpch.V3Output())
	if err != nil {
		t.Fatal(err)
	}
	if after := count(); after != before || cat.DesignGeneration() != gen {
		t.Fatalf("CreateView(V3) changed the physical design: %d → %d indexes, generation %d → %d",
			before, after, gen, cat.DesignGeneration())
	}
	if got := v.Maintainer().Arrangements(); len(got) != 0 {
		t.Fatalf("V3 holds derived arrangements: %v", got)
	}
}

// TestArrangeBetweenFlushes: CreateView and DropView land between flushes
// of an open WriteBatch running two maintenance workers over two disjoint
// view groups. Each builds or drops an arrangement under the staged
// statements; both groups must stay equal to a synchronous twin that
// registers and drops the same views at the same points. Run under -race in
// CI.
func TestArrangeBetweenFlushes(t *testing.T) {
	type group struct{ a, b string }
	groups := []group{{"A", "B"}, {"C", "D"}}
	build := func() (*ojv.Database, *rel.Catalog) {
		cat, err := fixture.RandCatalogNoIndex(rand.New(rand.NewSource(23)), 40)
		if err != nil {
			t.Fatal(err)
		}
		return ojv.WrapCatalog(cat), cat
	}
	register := func(db *ojv.Database, cat *rel.Catalog, g group, suffix string, inner bool) *ojv.View {
		t.Helper()
		on := ojv.Eq(g.a, g.a+"j", g.b, g.b+"j")
		expr := ojv.Table(g.a).LeftJoin(ojv.Table(g.b), on)
		if inner {
			expr = ojv.Table(g.a).Join(ojv.Table(g.b), on)
		}
		v, err := db.CreateView(g.a+g.b+suffix, expr, fixture.RandOutput(cat, expr.Expr()))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	dbBat, catBat := build()
	dbSync, catSync := build()
	wb := dbBat.NewWriteBatch(ojv.BatchOptions{MaintWorkers: 2})
	views := map[string][2]*ojv.View{}
	for _, g := range groups {
		views[g.a+g.b+"0"] = [2]*ojv.View{register(dbBat, catBat, g, "0", false), register(dbSync, catSync, g, "0", false)}
	}
	script := rand.New(rand.NewSource(29))
	key := int64(10_000)
	stage := func() {
		t.Helper()
		for _, g := range groups {
			for _, table := range []string{g.a, g.b} {
				row := fixture.RandRow(script, key)
				key++
				for _, w := range []stmtWriter{wb, dbSync} {
					if err := w.Insert(table, []ojv.Row{row}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	flushAndCompare := func(when string) {
		t.Helper()
		if err := wb.Flush(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for name, pair := range views {
			if err := pair[0].Check(); err != nil {
				t.Fatalf("%s: view %s: %v", when, name, err)
			}
			if viewFingerprint(pair[0]) != viewFingerprint(pair[1]) {
				t.Fatalf("%s: view %s differs from its synchronous twin", when, name)
			}
		}
	}

	stage()
	flushAndCompare("first flush")
	// A second holder per group arrives while statements are staged.
	stage()
	for _, g := range groups {
		views[g.a+g.b+"1"] = [2]*ojv.View{register(dbBat, catBat, g, "1", true), register(dbSync, catSync, g, "1", true)}
	}
	stage()
	flushAndCompare("flush across CreateView")
	// The first holders leave while statements are staged.
	stage()
	for _, g := range groups {
		name := g.a + g.b + "0"
		if !dbBat.DropView(name) || !dbSync.DropView(name) {
			t.Fatalf("DropView(%s) found nothing", name)
		}
		delete(views, name)
	}
	stage()
	flushAndCompare("flush across DropView")
	// The last holders leave: the arrangements go, the tables keep taking
	// writes, and a view registered afterwards starts from what they hold.
	for _, g := range groups {
		name := g.a + g.b + "1"
		dbBat.DropView(name)
		dbSync.DropView(name)
		delete(views, name)
		if n := len(catBat.Table(g.b).Indexes()); n != 0 {
			t.Fatalf("table %s keeps %d index(es) after its last view is dropped", g.b, n)
		}
	}
	stage()
	flushAndCompare("flush with no views")
	for _, g := range groups {
		views[g.a+g.b+"2"] = [2]*ojv.View{register(dbBat, catBat, g, "2", false), register(dbSync, catSync, g, "2", false)}
	}
	stage()
	flushAndCompare("flush after re-creation")
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B", "C", "D"} {
		if got, want := catBat.Table(name).Len(), catSync.Table(name).Len(); got != want {
			t.Fatalf("table %s holds %d rows, its synchronous twin %d", name, got, want)
		}
	}
}
