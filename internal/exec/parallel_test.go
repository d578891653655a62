package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ojv/internal/algebra"
	"ojv/internal/rel"
)

// allJoinKinds lists every join kind the executor implements, including the
// ones only maintenance plans generate (semi/anti).
var allJoinKinds = []algebra.JoinKind{
	algebra.InnerJoin, algebra.LeftOuterJoin, algebra.RightOuterJoin,
	algebra.FullOuterJoin, algebra.SemiJoin, algebra.AntiJoin,
}

// bigRandRelation builds a relation large enough to trip the partitioned
// hash-join path, with skewed keys (many duplicates) and NULLs.
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
func joinRels(workers int, kind algebra.JoinKind, left, right Relation, pred algebra.Pred) (Relation, error) {
	return Eval(&Context{
		Catalog:     rel.NewCatalog(),
		Rels:        map[string]Relation{"L": left, "R": right},
		Parallelism: workers,
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

// TestHashJoinParallelEquivalence checks, for every join kind, that the
// serial hash join, the partitioned hash join at several worker counts, and
// the nested-loop join all produce byte-identical results in identical row
// order. Nested loop is the oracle for the seed behavior: candidate lists
// filtered by the predicate visit right rows in index order either way.
func TestHashJoinParallelEquivalence(t *testing.T) {
	for seed := 0; seed < 6; seed++ {
		rng := rand.New(rand.NewSource(int64(900 + seed)))
		left := bigRandRelation(rng, "t", 700+rng.Intn(600))
		right := bigRandRelation(rng, "u", 700+rng.Intn(600))
		for _, kind := range allJoinKinds {
			oracle, err := joinRels(1, kind, left, right, eqAsRange())
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				got, err := joinRels(workers, kind, left, right, algebra.Eq("t", "x", "u", "x"))
				if err != nil {
					t.Fatal(err)
				}
				if err := identicalRelations(oracle, got); err != nil {
					t.Fatalf("seed %d kind %s workers %d: %v", seed, kind, workers, err)
				}
			}
		}
	}
}

// TestEvalParallelEquivalence evaluates a join tree over bound relations
// (whose row order is fixed, unlike catalog tables, which hand out rows in
// map order) at Parallelism 1 and 8 and requires byte-identical output in
// identical order, exercising the concurrent subtree evaluation path under
// the race detector.
func TestEvalParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	mkRel := func(table string, n int) Relation {
		sch := rel.Schema{
			{Table: table, Name: "k", Kind: rel.KindInt},
			{Table: table, Name: "v", Kind: rel.KindInt},
		}
		r := Relation{Schema: sch}
		for i := 0; i < n; i++ {
			r.Rows = append(r.Rows, rel.Row{rel.Int(int64(i)), rel.Int(int64(rng.Intn(40)))})
		}
		return r
	}
	rels := map[string]Relation{
		"A": mkRel("a", 800),
		"B": mkRel("b", 800),
		"C": mkRel("c", 800),
	}
	expr := &algebra.Join{
		Kind: algebra.FullOuterJoin,
		Left: &algebra.Join{
			Kind:  algebra.LeftOuterJoin,
			Left:  ref("A", "a"),
			Right: ref("B", "b"),
			Pred:  algebra.Eq("a", "v", "b", "v"),
		},
		Right: ref("C", "c"),
		Pred:  algebra.Eq("b", "k", "c", "k"),
	}
	serial, err := Eval(&Context{Catalog: rel.NewCatalog(), Rels: rels, Parallelism: 1}, expr)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Eval(&Context{Catalog: rel.NewCatalog(), Rels: rels, Parallelism: 8}, expr)
	if err != nil {
		t.Fatal(err)
	}
	if err := identicalRelations(serial, parallel); err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) == 0 {
		t.Fatal("degenerate test: empty join result")
	}
}

// stubSource is a controllable Source for failure-path tests: it can delay
// and fail Open, and serves a fixed row slice.
type stubSource struct {
	schema  rel.Schema
	rows    []rel.Row
	delay   time.Duration
	openErr error
	pos     int
}

func (s *stubSource) Schema() rel.Schema { return s.schema }

func (s *stubSource) Open() error {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
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

// TestPipelineGoroutineLeak proves the pool primitives never strand
// goroutines, including on early-error and early-abandon paths. Both
// runTasks and forChunks wg.Wait their workers unconditionally — an error
// in one task does not orphan its siblings — so the goroutine count must
// return to its baseline after (a) joins whose build side fails at Open
// while the probe side is still opening, (b) parallel evaluations drained
// to completion, and (c) pipelines abandoned after a single batch.
func TestPipelineGoroutineLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	left := bigRandRelation(rng, "t", 1200)
	right := bigRandRelation(rng, "u", 1200)
	concat := left.Schema.Concat(right.Schema)
	pred, err := algebra.Eq("t", "x", "u", "x").Compile(concat)
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	baseline := runtime.NumGoroutine()

	boom := errors.New("boom")
	for i := 0; i < 25; i++ {
		// (a) The build side fails at Open while the probe side is mid-Open:
		// runTasks must still join the concurrent opener before returning.
		ctx := &Context{Parallelism: 4}
		src := &hashJoinSource{
			opBase:     opBase{schema: concat},
			ctx:        ctx,
			kind:       algebra.FullOuterJoin,
			left:       &stubSource{schema: left.Schema, rows: left.Rows, delay: time.Millisecond},
			right:      &stubSource{schema: right.Schema, openErr: boom},
			pred:       pred,
			leftWidth:  len(left.Schema),
			rightWidth: len(right.Schema),
		}
		if err := src.Open(); !errors.Is(err, boom) {
			t.Fatalf("open error = %v, want %v", err, boom)
		}
		if err := src.Close(); err != nil {
			t.Fatalf("close after failed open: %v", err)
		}

		// (b) A fully drained partitioned join.
		if _, err := joinRels(4, algebra.FullOuterJoin, left, right, algebra.Eq("t", "x", "u", "x")); err != nil {
			t.Fatal(err)
		}

		// (c) A pipeline abandoned after one batch.
		src2 := &hashJoinSource{
			opBase:     opBase{schema: concat},
			ctx:        &Context{Parallelism: 4},
			kind:       algebra.InnerJoin,
			left:       &stubSource{schema: left.Schema, rows: left.Rows},
			right:      &stubSource{schema: right.Schema, rows: right.Rows},
			pred:       pred,
			leftCols:   []int{0},
			rightCols:  []int{0},
			leftWidth:  len(left.Schema),
			rightWidth: len(right.Schema),
		}
		if err := src2.Open(); err != nil {
			t.Fatal(err)
		}
		var b Batch
		if _, err := src2.Next(&b); err != nil {
			t.Fatal(err)
		}
		if err := src2.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Give any stragglers a moment to exit before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline || time.Now().After(deadline) {
			if n > baseline {
				t.Fatalf("goroutines leaked: %d before, %d after", baseline, n)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
