package exec

import (
	"math/rand"
	"strings"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/fixture"
	"ojv/internal/rel"
)

// This file proves the row lifetimes the arena gives a run: an Instance
// restarted over one arena, reset after every run, emits what a fresh
// Program.Start emits at every operator that builds a row, and no carved row
// can be grown into its neighbour.

// arenaCases are delta-driven programs that together build a row at every
// site that carves one: the probe join's concatenation and null extension,
// the hash join's copy and both null extensions, λ, pad, union padding,
// projection and group-by. A residual conjunct fails some of the
// candidates B's index returns, so a run can end with the probe join's
// concatenation buffer carved and not emitted.
// A case's name starts with the join algorithm it compiles to.
func arenaCases() []streamCase {
	dA := &algebra.DeltaRef{Name: "A"}
	b := &algebra.TableRef{Name: "B"}
	c := &algebra.TableRef{Name: "C"}
	residual := algebra.MakeAnd(algebra.Eq("A", "Aj", "B", "Bj"), algebra.CmpConst("B", "Bv", algebra.OpLt, rel.Int(50)))
	return []streamCase{
		{name: "index-outer-lambda", expr: &algebra.NullIf{
			Input:      &algebra.Join{Kind: algebra.LeftOuterJoin, Left: dA, Right: b, Pred: residual},
			Unless:     algebra.CmpConst("B", "Bv", algebra.OpLt, rel.Int(25)),
			NullTables: []string{"B"},
		}},
		{name: "index-inner-pad", expr: &algebra.Pad{
			Input:   &algebra.Join{Kind: algebra.InnerJoin, Left: dA, Right: b, Pred: residual},
			Tables_: []string{"C"},
		}},
		{name: "index-semi-then-outer", expr: &algebra.Join{
			Kind:  algebra.LeftOuterJoin,
			Left:  &algebra.Join{Kind: algebra.SemiJoin, Left: dA, Right: b, Pred: residual},
			Right: c,
			Pred:  algebra.Eq("A", "Aj", "C", "Cj"),
		}},
		{name: "hash-outer-union", expr: &algebra.OuterUnion{Inputs: []algebra.Expr{
			&algebra.Join{Kind: algebra.FullOuterJoin, Left: dA, Right: &algebra.Dedup{Input: b}, Pred: algebra.Eq("A", "Aj", "B", "Bj")},
			&algebra.Join{Kind: algebra.RightOuterJoin, Left: dA, Right: &algebra.Dedup{Input: c}, Pred: algebra.Eq("A", "Av", "C", "Cj")},
		}}},
		{name: "index-old-project-groupby", expr: &algebra.GroupBy{
			Input: &algebra.Project{
				Input: &algebra.Join{Kind: algebra.LeftOuterJoin, Left: c, Right: &algebra.OldTableRef{Name: "A"}, Pred: algebra.Eq("C", "Cj", "A", "Aj")},
				Cols:  []algebra.ColRef{algebra.Col("C", "Cj"), algebra.Col("A", "Av")},
			},
			GroupCols: []algebra.ColRef{algebra.Col("C", "Cj")},
			Aggs: []algebra.Aggregate{
				{Func: algebra.AggCount, Name: "n"},
				{Func: algebra.AggSum, Col: algebra.Col("A", "Av"), Name: "s"},
			},
		}},
	}
}

// signedDelta draws run i's signed delta of A: a few of A's rows as added,
// a few fabricated rows as removed, or both, with Delta the half the run
// propagates.
func signedDelta(rng *rand.Rand, cat *rel.Catalog, i int, nextKey *int64) *Context {
	ctx := &Context{Catalog: cat, DeltaTable: "A", BatchSize: streamSettings[i%len(streamSettings)]}
	rows := sortedRows(cat.Table("A").Rows())
	if i%3 != 1 {
		for range 1 + rng.Intn(5) {
			ctx.Added = append(ctx.Added, rows[rng.Intn(len(rows))])
		}
	}
	if i%3 != 0 {
		for range 1 + rng.Intn(5) {
			ctx.Removed = append(ctx.Removed, fixture.RandRow(rng, *nextKey))
			*nextKey++
		}
	}
	ctx.Delta = ctx.Added
	if ctx.Added == nil || (ctx.Removed != nil && i%2 == 1) {
		ctx.Delta = ctx.Removed
	}
	return ctx
}

func TestArenaRestartMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	cat, err := fixture.RandCatalog(rng, 40)
	if err != nil {
		t.Fatal(err)
	}
	nextKey := int64(1 << 20)
	for _, tc := range arenaCases() {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Compile(cat, nil, tc.expr)
			if err != nil {
				t.Fatal(err)
			}
			if alg, _, _ := strings.Cut(tc.name, "-"); !strings.Contains(prog.String(), "join."+alg) {
				t.Fatalf("the program has no %s join:\n%s", alg, prog)
			}
			inst := prog.Instance()
			var arena rel.Arena
			for i := range 60 {
				ctx := signedDelta(rng, cat, i, &nextKey)
				fresh := drain(t, ctx, prog.Start)
				bound := *ctx
				bound.Arena = &arena
				got := drain(t, &bound, inst.Start)
				// A table scan's order is the table's map order, so the two
				// runs agree as multisets.
				if !sameRelation(got, fresh) {
					t.Fatalf("run %d (added %d, removed %d): the instance over a reset arena emits %v, a fresh start %v",
						i, len(ctx.Added), len(ctx.Removed), got.Rows, fresh.Rows)
				}
				arena.Reset()
			}
		})
	}
}

// TestArenaRowsCapEqualsLen: a carved row's capacity ends where the row
// does, so appending to an emitted row copies it instead of writing over
// the row carved after it.
func TestArenaRowsCapEqualsLen(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cat, err := fixture.RandCatalog(rng, 40)
	if err != nil {
		t.Fatal(err)
	}
	rows := sortedRows(cat.Table("A").Rows())
	for _, tc := range arenaCases() {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Compile(cat, nil, tc.expr)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &Context{Catalog: cat, DeltaTable: "A", Delta: rows, Added: rows, Arena: new(rel.Arena)}
			out := drain(t, ctx, prog.Start)
			if len(out.Rows) < 2 {
				t.Fatalf("the run emitted %d rows, want two at least", len(out.Rows))
			}
			for i, r := range out.Rows {
				if cap(r) != len(r) {
					t.Fatalf("row %d has len %d and cap %d", i, len(r), cap(r))
				}
			}
			next := rel.EncodeValues(out.Rows[1]...)
			_ = append(out.Rows[0], rel.Int(-1))
			if rel.EncodeValues(out.Rows[1]...) != next {
				t.Fatal("an append to one emitted row wrote into the next")
			}
		})
	}
}
