package ojv_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
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

// familyPin is a pinned view snapshot and what it read when it was pinned.
type familyPin struct {
	name  string
	snap  *ojv.ViewSnapshot
	epoch uint64
	n     int
	rows  string
	terms [3]int
}

// pinFamily pins a snapshot of a view over A ⟕ B (or C ⟕ D).
func pinFamily(v *ojv.View) familyPin {
	s := v.Snapshot()
	return familyPin{name: v.Name(), snap: s, epoch: s.Epoch(), n: s.Len(), rows: snapshotFingerprint(s), terms: snapshotTerms(s)}
}

// reread reports how a pinned snapshot now reads differently, if it does.
func (p familyPin) reread() error {
	if e, n, rows, terms := p.snap.Epoch(), p.snap.Len(), snapshotFingerprint(p.snap), snapshotTerms(p.snap); e != p.epoch || n != p.n || rows != p.rows || terms != p.terms {
		return fmt.Errorf("view %s pinned at epoch %d with %d rows, terms %v now reads epoch %d, %d rows, terms %v (rows equal: %v)",
			p.name, p.epoch, p.n, p.terms, e, n, terms, rows == p.rows)
	}
	return nil
}

func snapshotFingerprint(s *ojv.ViewSnapshot) string {
	rows := s.SortedRows()
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return strings.Join(out, "\n")
}

// snapshotTerms reads the three term counters of a two-table view: the
// first table alone, the second alone, both.
func snapshotTerms(s *ojv.ViewSnapshot) [3]int {
	sch := s.Schema()
	a, b := sch[0].Table, sch[len(sch)-1].Table
	return [3]int{s.TermCardinality([]string{a}), s.TermCardinality([]string{b}), s.TermCardinality([]string{a, b})}
}

// TestFamilySnapshotsAcrossMembershipChanges: snapshots pinned of every
// member of a family — the narrowest, a middle one, the widest — and of a
// family of one read exactly as they did when pinned (Epoch, Len, Rows,
// TermCardinality) while the family widens, takes a sibling its selection
// already implies, loses a filtered member to a sibling that reuses its
// membership slot with another predicate, flushes inserts and deletes, and
// is rebuilt after a panic inside a store mutation. A reader goroutine
// re-reads every pin and reads fresh snapshots throughout, so under -race
// (CI) any read of a snapshot that reaches mutable family state is a race.
// After every step every view passes Check, which holds its fresh snapshot
// against its stored rows and both against recomputation.
func TestFamilySnapshotsAcrossMembershipChanges(t *testing.T) {
	cat, err := fixture.RandCatalogNoIndex(rand.New(rand.NewSource(41)), 60)
	if err != nil {
		t.Fatal(err)
	}
	db := ojv.WrapCatalog(cat)
	var armed atomic.Bool
	views := map[string]*ojv.View{}
	create := func(name string, p ojv.Pred) {
		t.Helper()
		v, err := db.CreateView(name, ojv.Table("A").Where(p).LeftJoin(ojv.Table("B"), ojv.Eq("A", "Aj", "B", "Bj")),
			ojv.Columns("A.Ak", "A.Aj", "A.Av", "B.Bk", "B.Bj"))
		if err != nil {
			t.Fatal(err)
		}
		views[name] = v
	}
	lt := func(c int64) ojv.Pred { return ojv.Cmp("A", "Av", algebra.OpLt, ojv.Int(c)) }
	create("narrow", lt(30))
	create("middle", lt(50))
	create("wide", lt(70))
	// A member whose predicate panics once armed: no other predicate implies
	// it, so it stays a disjunct of the family's selection, and once a
	// looser sibling heads the disjunction its first evaluation on a new row
	// of A is the membership bit the store computes inside insertRow.
	create("panicky", panicOnce{lt(60), &armed})
	views["solo"] = familyView(t, db, [2]string{"C", "D"}, "solo", 50)
	fam := views["narrow"].Maintainer()
	for _, name := range []string{"middle", "wide", "panicky"} {
		if views[name].Maintainer() != fam {
			t.Fatalf("view %s is not in narrow's family", name)
		}
	}

	var pins atomic.Pointer[[]familyPin]
	pins.Store(&[]familyPin{})
	var live atomic.Pointer[[]*ojv.View]
	live.Store(&[]*ojv.View{views["narrow"], views["wide"], views["solo"]})
	stop := make(chan struct{})
	readErr := make(chan error, 1)
	go func() {
		defer close(readErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, p := range *pins.Load() {
				if err := p.reread(); err != nil {
					readErr <- err
					return
				}
			}
			for _, v := range *live.Load() {
				s := v.Snapshot()
				if terms := snapshotTerms(s); len(s.Rows()) != s.Len() || terms[0]+terms[2] != s.Len() {
					readErr <- fmt.Errorf("view %s epoch %d: Len %d, %d rows, terms %v", v.Name(), s.Epoch(), s.Len(), len(s.Rows()), terms)
					return
				}
			}
		}
	}()

	step := func(what string) {
		t.Helper()
		for _, p := range *pins.Load() {
			if err := p.reread(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		next := append([]familyPin(nil), *pins.Load()...)
		for name, v := range views {
			if err := v.Check(); err != nil {
				t.Fatalf("%s: view %s: %v", what, name, err)
			}
			next = append(next, pinFamily(v))
		}
		pins.Store(&next)
	}
	key := int64(1000)
	write := func() {
		t.Helper()
		wb := db.NewWriteBatch(ojv.BatchOptions{MaintWorkers: 2})
		rng := rand.New(rand.NewSource(key))
		for _, table := range []string{"A", "B", "C", "D"} {
			var rows []ojv.Row
			for i := 0; i < 6; i++ {
				rows = append(rows, fixture.RandRow(rng, key))
				key++
			}
			if err := wb.Insert(table, rows); err != nil {
				t.Fatal(err)
			}
			if _, err := wb.Delete(table, [][]rel.Value{{ojv.Int(5)}, {ojv.Int(key - 1)}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := wb.Close(); err != nil {
			t.Fatal(err)
		}
	}

	step("first pins")
	create("looser", lt(90)) // widens: fresh rows, rewritten words
	step("after a widening sibling")
	create("implied", lt(40)) // already implied: only the words change
	step("after an implied sibling")
	if !db.DropView("middle") {
		t.Fatal("DropView(middle) found nothing")
	}
	delete(views, "middle")
	create("reuse", ojv.Cmp("A", "Av", algebra.OpGe, ojv.Int(20))) // takes middle's slot
	step("after a drop and a sibling in its slot")
	write()
	step("after a flush of inserts and deletes")
	armed.Store(true)
	err = db.Insert("A", []ojv.Row{{ojv.Int(5000), ojv.Int(1), ojv.Int(10)}})
	var pe *ojv.PanicError
	if !errors.As(err, &pe) || !strings.Contains(string(pe.Stack), "insertRow") {
		t.Fatalf("error %v, want a *PanicError raised inside the store's insertRow", err)
	}
	step("after a rebuild")
	if err := db.Insert("A", []ojv.Row{{ojv.Int(5000), ojv.Int(1), ojv.Int(10)}}); err != nil {
		t.Fatal(err)
	}
	step("after the statement the panic failed")
	close(stop)
	if err := <-readErr; err != nil {
		t.Fatal(err)
	}
}
