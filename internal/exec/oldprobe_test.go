package exec

import (
	"math/rand"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/rel"
)

// Tests for index probing into the reconstructed OLD state of a table —
// the physical path behind the paper's T± ⋉la ΔT (insertions, old rows =
// current minus delta) and T± + ΔT (deletions) expressions.

// oldProbeDB builds L(lk,a) and R(rk,j,a) with a secondary index on R.j.
func oldProbeDB(t testing.TB, rng *rand.Rand) *rel.Catalog {
	t.Helper()
	cat := rel.NewCatalog()
	if _, err := cat.CreateTable("L", []rel.Column{{Name: "lk", Kind: rel.KindInt}, {Name: "a", Kind: rel.KindInt}}, "lk"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("R", []rel.Column{{Name: "rk", Kind: rel.KindInt}, {Name: "j", Kind: rel.KindInt}, {Name: "a", Kind: rel.KindInt}}, "rk"); err != nil {
		t.Fatal(err)
	}
	var lRows, rRows []rel.Row
	for i := 0; i < 30; i++ {
		lRows = append(lRows, rel.Row{rel.Int(int64(i)), rel.Int(rng.Int63n(8))})
		rRows = append(rRows, rel.Row{rel.Int(int64(i)), rel.Int(rng.Int63n(8)), rel.Int(rng.Int63n(50))})
	}
	must(t, cat.Insert("L", lRows))
	must(t, cat.Insert("R", rRows))
	if _, err := cat.CreateIndex("R", "r_j", "j"); err != nil {
		t.Fatal(err)
	}
	return cat
}

// viaHash forces the non-indexed path by wrapping the right side in Dedup.
func compareOldProbe(t *testing.T, ctx *Context, right algebra.Expr, rightHash algebra.Expr, pred algebra.Pred) {
	t.Helper()
	for _, kind := range []algebra.JoinKind{algebra.InnerJoin, algebra.LeftOuterJoin, algebra.SemiJoin, algebra.AntiJoin} {
		indexed := evalOK(t, ctx, &algebra.Join{Kind: kind, Left: &algebra.TableRef{Name: "L"}, Right: right, Pred: pred})
		hashed := evalOK(t, ctx, &algebra.Join{Kind: kind, Left: &algebra.TableRef{Name: "L"}, Right: rightHash, Pred: pred})
		if !sameRelation(indexed, hashed) {
			t.Fatalf("kind %v: indexed old-probe %v != hash %v", kind, indexed.Rows, hashed.Rows)
		}
	}
}

func TestOldTableProbeInsertCase(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cat := oldProbeDB(t, rng)
	// Simulate: 5 rows were just inserted into R.
	var delta []rel.Row
	for i := 0; i < 5; i++ {
		delta = append(delta, rel.Row{rel.Int(int64(100 + i)), rel.Int(rng.Int63n(8)), rel.Int(rng.Int63n(50))})
	}
	must(t, cat.Insert("R", delta))
	ctx := &Context{Catalog: cat, DeltaTable: "R", Delta: delta, Added: delta}
	pred := algebra.Eq("L", "a", "R", "j")
	compareOldProbe(t, ctx,
		&algebra.OldTableRef{Name: "R"},
		&algebra.Dedup{Input: &algebra.OldTableRef{Name: "R"}},
		pred)
	// Probing the unique key path too (pred on R.rk).
	compareOldProbe(t, ctx,
		&algebra.OldTableRef{Name: "R"},
		&algebra.Dedup{Input: &algebra.OldTableRef{Name: "R"}},
		algebra.Eq("L", "a", "R", "rk"))
}

func TestOldTableProbeDeleteCase(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cat := oldProbeDB(t, rng)
	// Simulate: 5 rows were just deleted from R.
	var keys [][]rel.Value
	for i := 0; i < 5; i++ {
		keys = append(keys, []rel.Value{rel.Int(int64(i * 3))})
	}
	deleted, err := cat.Delete("R", keys)
	must(t, err)
	ctx := &Context{Catalog: cat, DeltaTable: "R", Delta: deleted, Removed: deleted}
	pred := algebra.Eq("L", "a", "R", "j")
	compareOldProbe(t, ctx,
		&algebra.OldTableRef{Name: "R"},
		&algebra.Dedup{Input: &algebra.OldTableRef{Name: "R"}},
		pred)
	compareOldProbe(t, ctx,
		&algebra.OldTableRef{Name: "R"},
		&algebra.Dedup{Input: &algebra.OldTableRef{Name: "R"}},
		algebra.Eq("L", "a", "R", "rk"))
	// With a selection on the old state, probed rows must pass it.
	sel := algebra.CmpConst("R", "a", algebra.OpLt, rel.Int(25))
	compareOldProbe(t, ctx,
		&algebra.Select{Input: &algebra.OldTableRef{Name: "R"}, Pred: sel},
		&algebra.Dedup{Input: &algebra.Select{Input: &algebra.OldTableRef{Name: "R"}, Pred: sel}},
		pred)
}

func TestOldTableProbeRecoversDeletedRows(t *testing.T) {
	// The old state after a deletion must contain the deleted rows: a probe
	// for a deleted row's key must find it.
	rng := rand.New(rand.NewSource(47))
	cat := oldProbeDB(t, rng)
	victim, ok := cat.Table("R").Get(rel.Int(7))
	if !ok {
		t.Fatal("row R(7) missing")
	}
	deleted, err := cat.Delete("R", [][]rel.Value{{rel.Int(7)}})
	must(t, err)
	ctx := &Context{Catalog: cat, DeltaTable: "R", Delta: deleted, Removed: deleted}
	old := evalOK(t, ctx, &algebra.OldTableRef{Name: "R"})
	found := false
	for _, r := range old.Rows {
		if r.Equal(victim) {
			found = true
		}
	}
	if !found {
		t.Error("old state must contain the deleted row")
	}
	// And the new state must not.
	cur := evalOK(t, ctx, &algebra.TableRef{Name: "R"})
	for _, r := range cur.Rows {
		if r.Equal(victim) {
			t.Error("current state must not contain the deleted row")
		}
	}
}

// TestOldTableSignedDelta binds both halves of a signed delta, as a modify
// binds them, and checks that OldTableRef reads the table's pre-step state,
// current − added (by key) + removed, through the scan path and the index
// probe path alike: the step rewrites some rows in place (same key, new
// values), deletes others and inserts fresh ones.
func TestOldTableSignedDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cat := oldProbeDB(t, rng)
	before := sortedRows(cat.Table("R").Rows())
	var removed, added []rel.Row
	for i := 0; i < 4; i++ {
		key := []rel.Value{rel.Int(int64(2 * i))}
		nw := rel.Row{key[0], rel.Int(rng.Int63n(8)), rel.Int(rng.Int63n(50))}
		old, err := cat.Update("R", key, nw)
		must(t, err)
		removed, added = append(removed, old), append(added, nw)
	}
	deleted, err := cat.Delete("R", [][]rel.Value{{rel.Int(21)}, {rel.Int(23)}})
	must(t, err)
	removed = append(removed, deleted...)
	fresh := []rel.Row{{rel.Int(100), rel.Int(3), rel.Int(1)}, {rel.Int(101), rel.Int(5), rel.Int(2)}}
	must(t, cat.Insert("R", fresh))
	added = append(added, fresh...)

	ctx := &Context{Catalog: cat, DeltaTable: "R", Delta: added, Removed: removed, Added: added}
	scanned := evalOK(t, ctx, &algebra.OldTableRef{Name: "R"})
	if got := sortedRows(scanned.Rows); !sameRelation(Relation{Rows: got}, Relation{Rows: before}) {
		t.Fatalf("old-state scan read %d rows, want the %d rows R held before the step:\n got %v\nwant %v", len(got), len(before), got, before)
	}

	// The index probe path, against a hash join over the pre-step rows
	// bound as a relation: every join kind and both probe routes (the
	// secondary index on j, the unique key rk) must agree with it.
	ctx.Rels = map[string]Relation{"__before": {Schema: cat.Table("R").Schema(), Rows: before}}
	bound := &algebra.RelRef{Name: "__before", TableNames: []string{"R"}}
	for _, pred := range []algebra.Pred{algebra.Eq("L", "a", "R", "j"), algebra.Eq("L", "a", "R", "rk")} {
		compareOldProbe(t, ctx, &algebra.OldTableRef{Name: "R"}, bound, pred)
	}
}
