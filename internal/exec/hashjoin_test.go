package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/rel"
)

// allJoinKinds lists every join kind the executor implements, including the
// ones only maintenance plans generate (semi/anti).
var allJoinKinds = []algebra.JoinKind{
	algebra.InnerJoin, algebra.LeftOuterJoin, algebra.RightOuterJoin,
	algebra.FullOuterJoin, algebra.SemiJoin, algebra.AntiJoin,
}

// bigRandRelation builds a relation spanning several pipeline batches, with
// skewed keys (many duplicates) and NULLs.
func bigRandRelation(rng *rand.Rand, table string, n int) Relation {
	sch := rel.Schema{
		{Table: table, Name: "x", Kind: rel.KindInt},
		{Table: table, Name: "y", Kind: rel.KindInt},
	}
	r := Relation{Schema: sch}
	for i := 0; i < n; i++ {
		var k rel.Value
		switch rng.Intn(10) {
		case 0:
			k = rel.Null
		case 1:
			k = rel.Float(float64(rng.Intn(50))) // integral float: coerces to int key
		default:
			k = rel.Int(int64(rng.Intn(50)))
		}
		r.Rows = append(r.Rows, rel.Row{k, rel.Int(int64(i))})
	}
	return r
}

// identicalRelations requires the exact same rows in the exact same order.
func identicalRelations(a, b Relation) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if rel.EncodeValues(a.Rows[i]...) != rel.EncodeValues(b.Rows[i]...) {
			return fmt.Errorf("row %d differs: %v vs %v", i, a.Rows[i], b.Rows[i])
		}
	}
	return nil
}

// joinRels joins two materialized relations the way every caller does: a
// RelRef ⋈ RelRef expression compiled and run through the streaming join.
func joinRels(kind algebra.JoinKind, left, right Relation, pred algebra.Pred) (Relation, error) {
	return Eval(&Context{
		Catalog: rel.NewCatalog(),
		Rels:    map[string]Relation{"L": left, "R": right},
	}, &algebra.Join{
		Kind:  kind,
		Left:  ref("L", left.Schema.Tables()...),
		Right: ref("R", right.Schema.Tables()...),
		Pred:  pred,
	})
}

// eqAsRange is t.x = u.x spelled t.x ≤ u.x ∧ t.x ≥ u.x: the same
// three-valued truth table with no equi-conjunct for the compiler to hash
// on, so the join runs as a nested loop.
func eqAsRange() algebra.Pred {
	tx, ux := algebra.ColOperand("t", "x"), algebra.ColOperand("u", "x")
	return algebra.MakeAnd(
		algebra.Cmp{Left: tx, Op: algebra.OpLe, Right: ux},
		algebra.Cmp{Left: tx, Op: algebra.OpGe, Right: ux})
}

// TestHashJoinMatchesNestedLoop checks, for every join kind over relations
// of several batches with skewed keys, NULLs and integral floats, that the
// hash join produces byte-identical results in identical row order to the
// nested-loop join: both visit a probe row's candidates in build order, so
// the hash buckets must hold them ascending.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	for seed := 0; seed < 6; seed++ {
		rng := rand.New(rand.NewSource(int64(900 + seed)))
		left := bigRandRelation(rng, "t", 700+rng.Intn(600))
		right := bigRandRelation(rng, "u", 700+rng.Intn(600))
		for _, kind := range allJoinKinds {
			nested, err := joinRels(kind, left, right, eqAsRange())
			if err != nil {
				t.Fatal(err)
			}
			hashed, err := joinRels(kind, left, right, algebra.Eq("t", "x", "u", "x"))
			if err != nil {
				t.Fatal(err)
			}
			if err := identicalRelations(nested, hashed); err != nil {
				t.Fatalf("seed %d kind %s: %v", seed, kind, err)
			}
		}
	}
}

// stubSource is a controllable Source for failure-path tests: it can fail
// Open, and serves a fixed row slice.
type stubSource struct {
	schema  rel.Schema
	rows    []rel.Row
	openErr error
	opened  bool
	pos     int
}

func (s *stubSource) Schema() rel.Schema { return s.schema }

func (s *stubSource) Open() error {
	s.opened = true
	return s.openErr
}

func (s *stubSource) Next(b *Batch) (bool, error) {
	b.Reset()
	for s.pos < len(s.rows) && b.Len() < DefaultBatchSize {
		b.Append(s.rows[s.pos])
		s.pos++
	}
	return b.Len() > 0, nil
}

func (s *stubSource) Close() error { return nil }

// TestHashJoinBuildOpenError checks the failure path of Open: a build side
// that fails to open surfaces its error, the probe side is never opened,
// and Close after the failed Open succeeds.
func TestHashJoinBuildOpenError(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	left := bigRandRelation(rng, "t", 1200)
	right := bigRandRelation(rng, "u", 1200)
	concat := left.Schema.Concat(right.Schema)
	pred, err := algebra.Eq("t", "x", "u", "x").Compile(concat)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	probe := &stubSource{schema: left.Schema, rows: left.Rows}
	src := &hashJoinSource{
		opBase:     opBase{schema: concat},
		ctx:        &Context{},
		kind:       algebra.FullOuterJoin,
		left:       probe,
		right:      &stubSource{schema: right.Schema, openErr: boom},
		pred:       pred,
		leftWidth:  len(left.Schema),
		rightWidth: len(right.Schema),
	}
	if err := src.Open(); !errors.Is(err, boom) {
		t.Fatalf("open error = %v, want %v", err, boom)
	}
	if probe.opened {
		t.Error("the probe side was opened after the build side failed")
	}
	if err := src.Close(); err != nil {
		t.Fatalf("close after failed open: %v", err)
	}
}
