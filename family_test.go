package ojv_test

import (
	"math/rand"
	"testing"

	"ojv"
	"ojv/internal/algebra"
	"ojv/internal/fixture"
	"ojv/internal/rel"
)

// View families (DESIGN.md §19): views that differ only in a selection on a
// table in every term share one store and one maintenance run.

// familyView registers σ(A.Av < lt) A ⟕ B over the group's tables, with the
// group's fixed output, so views of one group differ only in lt.
func familyView(t *testing.T, db *ojv.Database, g [2]string, name string, lt int64) *ojv.View {
	t.Helper()
	a, b := g[0], g[1]
	expr := ojv.Table(a).Where(ojv.Cmp(a, a+"v", algebra.OpLt, ojv.Int(lt))).LeftJoin(ojv.Table(b), ojv.Eq(a, a+"j", b, b+"j"))
	v, err := db.CreateView(name, expr, ojv.Columns(a+"."+a+"k", a+"."+a+"j", a+"."+a+"v", b+"."+b+"k", b+"."+b+"j"))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFamilyBetweenFlushes: members of two view families — one per disjoint
// table group, flushed on two maintenance workers — join (widening the
// family, or inside its selection) and leave (the founder first) between
// flushes of an open WriteBatch. Every view must equal its recomputation
// and a synchronous twin that registers and drops the same views at the
// same points, and the views of a group must share one maintainer until the
// last leaves. Run under -race in CI.
func TestFamilyBetweenFlushes(t *testing.T) {
	groups := [][2]string{{"A", "B"}, {"C", "D"}}
	build := func() *ojv.Database {
		cat, err := fixture.RandCatalogNoIndex(rand.New(rand.NewSource(31)), 40)
		if err != nil {
			t.Fatal(err)
		}
		return ojv.WrapCatalog(cat)
	}
	dbBat, dbSync := build(), build()
	wb := dbBat.NewWriteBatch(ojv.BatchOptions{MaintWorkers: 2})
	views := map[string][2]*ojv.View{}
	register := func(suffix string, lt int64) {
		for _, g := range groups {
			name := g[0] + g[1] + suffix
			views[name] = [2]*ojv.View{familyView(t, dbBat, g, name, lt), familyView(t, dbSync, g, name, lt)}
		}
	}
	drop := func(suffix string) {
		for _, g := range groups {
			name := g[0] + g[1] + suffix
			if !dbBat.DropView(name) || !dbSync.DropView(name) {
				t.Fatalf("DropView(%s) found nothing", name)
			}
			delete(views, name)
		}
	}
	script := rand.New(rand.NewSource(37))
	key := int64(10_000)
	stage := func() {
		t.Helper()
		for _, g := range groups {
			for _, table := range g {
				row := fixture.RandRow(script, key)
				key++
				for _, w := range []stmtWriter{wb, dbSync} {
					if err := w.Insert(table, []ojv.Row{row}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := wb.Delete(g[1], [][]rel.Value{{ojv.Int(key - 1)}}); err != nil {
				t.Fatal(err)
			}
			if _, err := dbSync.Delete(g[1], [][]rel.Value{{ojv.Int(key - 1)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	flushAndCompare := func(when string, members int) {
		t.Helper()
		if err := wb.Flush(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for _, g := range groups {
			var family []*ojv.View
			for name, pair := range views {
				if name[:2] != g[0]+g[1] {
					continue
				}
				family = append(family, pair[0])
				if err := pair[0].Check(); err != nil {
					t.Fatalf("%s: view %s: %v", when, name, err)
				}
				if viewFingerprint(pair[0]) != viewFingerprint(pair[1]) {
					t.Fatalf("%s: view %s differs from its synchronous twin", when, name)
				}
			}
			for _, v := range family {
				if v.Maintainer() != family[0].Maintainer() {
					t.Fatalf("%s: views %s and %s of one family have two maintainers", when, v.Name(), family[0].Name())
				}
			}
			if len(family) != members {
				t.Fatalf("%s: group %v has %d views, want %d", when, g, len(family), members)
			}
		}
	}

	register("0", 40)
	stage()
	flushAndCompare("first flush", 1)
	stage()
	register("1", 70) // widens the family
	register("2", 20) // inside its selection
	stage()
	flushAndCompare("flush across joins", 3)
	stage()
	drop("0") // the founder leaves
	stage()
	flushAndCompare("flush across the founder's drop", 2)
	register("3", 90)
	drop("1")
	stage()
	flushAndCompare("flush across a join and a drop", 2)
	drop("2")
	drop("3")
	stage()
	flushAndCompare("flush with no views", 0)
	register("4", 50)
	stage()
	flushAndCompare("flush after re-creation", 1)
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFamilySpansNameALiveMember: a family's view.maintain and
// changeset.commit spans carry the name of its oldest live member, so once
// the founder is dropped and a view of another shape reuses its name, the
// two runs a statement makes stay apart in a trace.
func TestFamilySpansNameALiveMember(t *testing.T) {
	cat, err := fixture.RandCatalogNoIndex(rand.New(rand.NewSource(31)), 40)
	if err != nil {
		t.Fatal(err)
	}
	db := ojv.WrapCatalog(cat)
	tracer := ojv.NewTracer()
	opts := ojv.Options{Tracer: tracer}
	out := ojv.Columns("A.Ak", "A.Aj", "A.Av", "B.Bk", "B.Bj")
	create := func(name string, lt int64, output []ojv.ColRef) *ojv.View {
		t.Helper()
		v, err := db.CreateView(name, ojv.Table("A").Where(ojv.Cmp("A", "Av", algebra.OpLt, ojv.Int(lt))).
			LeftJoin(ojv.Table("B"), ojv.Eq("A", "Aj", "B", "Bj")), output, opts)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	founder, member := create("f0", 40, out), create("f1", 70, out)
	if founder.Maintainer() != member.Maintainer() {
		t.Fatal("f0 and f1 did not form one family")
	}
	if !db.DropView("f0") {
		t.Fatal("DropView(f0) found nothing")
	}
	reused := create("f0", 40, ojv.Columns("A.Ak", "A.Av", "B.Bk"))
	if reused.Maintainer() == member.Maintainer() {
		t.Fatal("a view with other output columns joined the family")
	}
	tracer.Reset()
	if err := db.Insert("A", []ojv.Row{fixture.RandRow(rand.New(rand.NewSource(5)), 10_000)}); err != nil {
		t.Fatal(err)
	}
	names := map[string]map[string]int{"view.maintain": {}, "changeset.commit": {}}
	for _, sp := range tracer.Roots() {
		if byView, ok := names[sp.Name()]; ok {
			name, _ := sp.AttrStr("view")
			byView[name]++
		}
	}
	for span, byView := range names {
		if byView["f0"] != 1 || byView["f1"] != 1 || len(byView) != 2 {
			t.Errorf("%s spans by view %v, want one for f0 and one for f1", span, byView)
		}
	}
}
