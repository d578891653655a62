package oracle

import (
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"ojv/internal/fixture"
)

// strategies are the CreateView strategy slots the corpora run: slot 1
// draws StrategyAuto (§5.2 for an SPOJ view, §5.3 for an aggregate) and slot
// 2 StrategyFromBase (§5.3). Slot 1 once drew the retired from-view
// strategy, which Auto always equalled; the slots keep every generated
// script, and every subtest name, as it was.
var strategies = []uint8{1, 2}

// Op mixes that lean the generator towards what a test is about. Every mix
// keeps every statement kind.
var (
	batchMix      = map[Kind]int{OpenBatch: 8, Flush: 6, Churn: 4, Save: 0, Load: 0}
	manyViewsMix  = map[Kind]int{OpenBatch: 8, Flush: 6, CreateView: 8, DropView: 0, Save: 0, Load: 0, Round: 0}
	concurrentMix = map[Kind]int{OpenBatch: 8, Flush: 4, Round: 8, Close: 1, Discard: 0, Save: 0, Load: 0}
	// The fault sweeps stage into one open batch and flush it once, at the
	// end (no BatchRows, whose read may flush). They draw no delete of a
	// whole row (an update's removed half still visits the delete sites), so
	// RESTRICT cannot fail the flush wholesale.
	faultMix = map[Kind]int{OpenBatch: 20, Flush: 0, Close: 0, Discard: 0, DropView: 0, Save: 0, Load: 0,
		Fault: 0, Delete: 0, Truncate: 0, OrphanAll: 0, AddForeignKey: 0, BatchRows: 0}
	concurrentFaultMix = map[Kind]int{OpenBatch: 20, Round: 8, Flush: 0, Close: 0, Discard: 0, DropView: 0, Save: 0, Load: 0,
		Fault: 0, Delete: 0, Truncate: 0, OrphanAll: 0, AddForeignKey: 0, BatchRows: 0}
)

// wantShapes are the adversarial shapes the short corpus must produce.
var wantShapes = []string{"zipf", "hot", "all-null", "truncate", "orphan-all", "churn", "round", "fault", "load-under-batch",
	"query-view", "query-base", "read-flush", "read-committed", "family", "family-drop"}

// TestShortCorpus is the always-on corpus: every op kind drawn, over six
// seeds, both secondary-delta strategies, and every batch flushed inline
// (par=1) or on a pool of four component workers (par=4). Once every
// subtest ran, it checks the corpus produced each adversarial shape at
// least once.
func TestShortCorpus(t *testing.T) {
	var mu sync.Mutex
	shapes, runs := map[string]int{}, 0
	t.Cleanup(func() {
		if runs < 24 {
			return // a -run filter picked a subset
		}
		for _, s := range wantShapes {
			if shapes[s] == 0 {
				t.Errorf("the short corpus never produced %s", s)
			}
		}
	})
	for seed := range 6 {
		for _, strategy := range strategies {
			for _, par := range []int{1, 4} {
				gen := Gen{Seed: int64(seed), Strategies: []uint8{strategy}, Workers: []int{par}}
				t.Run(fmt.Sprintf("seed=%d/strategy=%v/par=%d", seed, strategy, par), func(t *testing.T) {
					t.Parallel()
					st, err := run(gen.Script())
					if err != nil {
						t.Fatal(err)
					}
					mu.Lock()
					defer mu.Unlock()
					runs++
					for k, n := range st.shapes {
						shapes[k] += n
					}
				})
			}
		}
	}
}

// corpus runs one generated script per subtest, in parallel.
func corpus(t *testing.T, name string, gen Gen) {
	t.Run(name, func(t *testing.T) {
		t.Parallel()
		if err := Run(gen.Script()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBatchOracleShort leans on the group-commit pipeline: batches opened
// early and flushed often, insert-update-delete churn inside one batch
// window, synchronous statements interleaved with staged ones.
func TestBatchOracleShort(t *testing.T) {
	for seed := range 6 {
		for _, s := range strategies {
			corpus(t, fmt.Sprintf("seed=%d/strategy=%v", seed, s),
				Gen{Seed: int64(100 + seed), Strategies: []uint8{s}, Weights: batchMix})
		}
	}
}

// TestServingCorpus runs with four snapshot readers pinning every table
// and view for the whole script.
func TestServingCorpus(t *testing.T) {
	for _, s := range strategies {
		for seed := int64(9000); seed < 9004; seed++ {
			corpus(t, fmt.Sprintf("seed=%d/strategy=%v", seed, s),
				Gen{Seed: seed, Strategies: []uint8{s}, Readers: 4})
		}
	}
}

// TestManyViewsOracleShort concentrates up to six views, a third of them
// duplicate shapes, on three tables, so flushes maintain several views, and
// view families, over the same deltas.
func TestManyViewsOracleShort(t *testing.T) {
	for seed := range 6 {
		for _, s := range strategies {
			corpus(t, fmt.Sprintf("seed=%d/strategy=%v", seed, s),
				Gen{Seed: int64(200 + seed), Strategies: []uint8{s}, Tables: 3, Views: 6, Weights: manyViewsMix})
		}
	}
}

// TestSharedOracleManyViews is a many-views correctness corpus: sixteen
// views over three tables, flushed in batches. Over its seeds some view
// must have joined a view family.
func TestSharedOracleManyViews(t *testing.T) {
	families := 0
	for seed := int64(42); seed < 44; seed++ {
		st, err := run(Gen{Seed: seed, Tables: 3, Views: 16, Ops: 30,
			Weights: map[Kind]int{OpenBatch: 8, Flush: 6, CreateView: 20, DropView: 0, Save: 0, Load: 0, Query: 0, BatchRows: 0}}.Script())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		families += st.shapes["family"]
	}
	if families == 0 {
		t.Fatal("sixteen views over three tables formed no view family")
	}
}

// TestConcurrentMaintCorpus leans on concurrent staging rounds into a
// batch flushed by a pool of workers, with readers throughout.
func TestConcurrentMaintCorpus(t *testing.T) {
	for seed := int64(7100); seed < 7104; seed++ {
		corpus(t, fmt.Sprintf("seed=%d", seed), Gen{Seed: seed, Tables: 5, Readers: 2, Weights: concurrentMix})
	}
}

// TestConcurrentMaintWorkerCounts runs one seed at pool sizes below, at and
// above the component count.
func TestConcurrentMaintWorkerCounts(t *testing.T) {
	for _, w := range []int{2, 3, 8} {
		corpus(t, fmt.Sprintf("workers=%d", w), Gen{Seed: 7200, Tables: 5, Readers: 2, Workers: []int{w}, Weights: concurrentMix})
	}
}

// TestRunTinyCorpus runs the smallest script: two views and two ops.
func TestRunTinyCorpus(t *testing.T) {
	if err := Run(Gen{Seed: 1, Ops: 4}.Script()); err != nil {
		t.Fatal(err)
	}
}

// sweep fails every failpoint site of a script's final flush in turn: a
// count-only Fault op counts the sites a fault-free run consults there,
// then site k = 1..n each get two runs of their own, one failing it with an
// error and one with a panic. Every failed flush must restore the failed
// component exactly, leave the others flushed and keep its statements, and
// the retry must converge on the fault-free state. It returns the shapes
// the swept runs counted.
func sweep(t *testing.T, s Script) map[string]int {
	t.Helper()
	with := func(fault Op) Script {
		c := s
		c.Ops = append(append(append([]Op(nil), s.Ops...), fault), Op{Kind: Flush})
		return c
	}
	st, err := run(with(Op{Kind: Fault}))
	if err != nil {
		t.Fatal(err)
	}
	if st.sites == 0 {
		t.Fatal("the swept flush consulted no failpoint site")
	}
	shapes := map[string]int{}
	for k := 1; k <= st.sites; k++ {
		for _, panics := range []uint8{0, 1} {
			swept, err := run(with(Op{Kind: Fault, N: panics, Seed: uint32(k)}))
			if err != nil {
				t.Fatalf("site %d of %d (panic %v): %v", k, st.sites, panics == 1, err)
			}
			for name, n := range swept.shapes {
				shapes[name] += n
			}
		}
	}
	t.Logf("swept %d failpoint sites, %d fired as panics; %d tables committed beside a failed component, %d restored that no view reads",
		st.sites, shapes["panic-fault"], shapes["partial-flush"], shapes["restored-unviewed"])
	return shapes
}

// TestBatchFaultMatrix sweeps the flush of a batch with synchronous
// statements interleaved, flushed inline. Some sweep must have fired a
// fault as a panic.
func TestBatchFaultMatrix(t *testing.T) {
	var mu sync.Mutex
	panics, runs := 0, 0
	t.Cleanup(func() {
		if runs == 4 && panics == 0 {
			t.Error("no swept fault fired as a panic")
		}
	})
	for _, seed := range []int64{1, 2} {
		for _, s := range strategies {
			gen := Gen{Seed: seed, Ops: 20, Strategies: []uint8{s}, Workers: []int{0}, Weights: faultMix}
			t.Run(fmt.Sprintf("seed=%d/strategy=%v", seed, s), func(t *testing.T) {
				t.Parallel()
				swept := sweep(t, gen.Script())
				mu.Lock()
				defer mu.Unlock()
				panics += swept["panic-fault"]
				runs++
			})
		}
	}
}

// TestConcurrentFaultMatrix sweeps the flush of a batch staged by
// concurrent rounds over every FK group, so it splits into components
// that fail alone — inline with no pool, concurrently on a pool of two —
// while two snapshot readers pin every table and view. Some sweep must
// have seen a component commit beside a failed one, a failed component
// roll back a table that no view reads (a child whose declared foreign key
// puts it in its parent's component), and a fault fire as a panic.
func TestConcurrentFaultMatrix(t *testing.T) {
	var mu sync.Mutex
	shapes, runs := map[string]int{}, 0
	t.Cleanup(func() {
		if runs < 6 {
			return // a -run filter picked a subset
		}
		if shapes["partial-flush"] == 0 {
			t.Error("no failed flush left another component committed")
		}
		if shapes["restored-unviewed"] == 0 {
			t.Error("no failed component held a table that no view reads")
		}
		if shapes["panic-fault"] == 0 {
			t.Error("no swept fault fired as a panic")
		}
	})
	for _, seed := range []int64{7300, 7301, 12} {
		for _, w := range []int{0, 2} {
			gen := Gen{Seed: seed, Ops: 20, Tables: 5, Views: 3, Readers: 2, Workers: []int{w}, Weights: concurrentFaultMix}
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, w), func(t *testing.T) {
				t.Parallel()
				swept := sweep(t, gen.Script())
				mu.Lock()
				defer mu.Unlock()
				for name, n := range swept {
					shapes[name] += n
				}
				runs++
			})
		}
	}
}

// maxOps bounds a decoded script, so a fuzz input stays a short run.
const maxOps = 96

// decode reads any byte string as a script, folding every field into its
// range: 2 to 5 tables, at most 15 initial rows and 4 readers, at most
// maxOps ops. It reads back exactly what encode writes for a script the
// generator draws.
func decode(b []byte) Script {
	next := func() (c byte) {
		if len(b) > 0 {
			c, b = b[0], b[1:]
		}
		return c
	}
	u32 := func() uint32 { return uint32(next()) | uint32(next())<<8 | uint32(next())<<16 | uint32(next())<<24 }
	s := Script{Rows: int(next() % 16), Readers: int(next() % 5)}
	n := 2 + (int(next())+2)%4
	s.Seed = u32()
	for i := 0; i < n; i++ {
		flags, parent := next(), int(next())
		t := fixture.DrawnTable{Name: string(rune('A' + i)), Dist: fixture.Dist(flags&0xf) % fixture.NumDists, Index: flags&0x20 != 0}
		if parent > 0 && parent <= i {
			t.Parent, t.FK = string(rune('A'+parent-1)), flags&0x10 != 0
		}
		s.Tables = append(s.Tables, t)
	}
	for len(b) >= 7 && len(s.Ops) < maxOps {
		s.Ops = append(s.Ops, Op{Kind: Kind(next() % byte(numKinds)), T: next(), N: next(), Seed: u32()})
	}
	return s
}

// encode renders a script in the byte form decode reads: how a failing
// script becomes an entry of FuzzOracle's corpus.
func encode(s Script) []byte {
	b := []byte{byte(s.Rows), byte(s.Readers), byte(len(s.Tables))}
	b = binary.LittleEndian.AppendUint32(b, s.Seed)
	for _, t := range s.Tables {
		flags := byte(t.Dist)
		if t.FK {
			flags |= 0x10
		}
		if t.Index {
			flags |= 0x20
		}
		parent := byte(0)
		if t.Parent != "" {
			parent = t.Parent[0] - 'A' + 1
		}
		b = append(b, flags, parent)
	}
	for _, op := range s.Ops {
		b = append(b, byte(op.Kind), op.T, op.N)
		b = binary.LittleEndian.AppendUint32(b, op.Seed)
	}
	return b
}

// TestScriptRoundTrip pins the codec FuzzOracle's corpus is written in.
func TestScriptRoundTrip(t *testing.T) {
	for seed := range int64(50) {
		s := Gen{Seed: seed, Readers: int(seed % 5)}.Script()
		if got := decode(encode(s)); !reflect.DeepEqual(got, s) {
			t.Fatalf("seed %d: decode(encode(s)) = %+v, want %+v", seed, got, s)
		}
	}
}

// FuzzOracle runs arbitrary bytes as a script. Its corpus under
// testdata/fuzz/FuzzOracle holds the minimized scripts of past bugs.
func FuzzOracle(f *testing.F) {
	for seed := range int64(4) {
		f.Add(encode(Gen{Seed: seed, Ops: 24, Readers: 1}.Script()))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := Run(decode(data)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFullCorpus is the nightly corpus: 400 scripts with every value drawn
// and two readers. It runs only when OJV_ORACLE_CORPUS=full is set, which
// the nightly CI job exports.
func TestFullCorpus(t *testing.T) {
	if os.Getenv("OJV_ORACLE_CORPUS") != "full" {
		t.Skip("set OJV_ORACLE_CORPUS=full to run the large corpus")
	}
	for seed := int64(10_000); seed < 10_400; seed++ {
		corpus(t, fmt.Sprintf("seed=%d", seed), Gen{Seed: seed, Ops: 60, Readers: 2})
	}
}
