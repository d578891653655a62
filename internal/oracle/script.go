// Package oracle is the model-based test harness of the ojv facade. A
// Script is a drawn catalog plus a list of ops — statements, batches and
// flushes, DDL, save/load, armed failpoints, concurrent staging rounds —
// that Run executes through the public API alone, with reader goroutines
// pinning snapshots the whole time. After every committed statement, flush
// or DDL the database must agree with two references: a map-based model of
// the base tables, whose key, NOT NULL, foreign-key and RESTRICT rules
// predict whether each statement is accepted, and a deliberately naive
// nested-loop evaluation of every view over the model's rows (DESIGN.md
// §9). Scripts come from a seeded generator (Gen) or, in FuzzOracle, from
// arbitrary bytes, which makes the harness a fuzz target.
package oracle

import (
	"cmp"
	"fmt"
	"math/rand"

	"ojv/internal/fixture"
)

// Kind is what one op does.
type Kind uint8

// The op kinds. Statement kinds (Insert through Reparent) stage into the open
// batch unless the op's syncBit is set or no batch is open, in which case
// they run synchronously.
const (
	Insert        Kind = iota // 1 to 4 rows, some with a duplicate key, a dangling or NULL f
	Delete                    // 1 to 3 keys, now and then a missing or repeated one
	Update                    // one key, now and then a missing one
	Truncate                  // every row of the table in one statement
	OrphanAll                 // every row whose j is fixture.HotValue
	Churn                     // insert, update and delete one fresh key
	Reparent                  // insert a fresh parent and move a child of the T-th child table to it; with N&4, delete the parent again
	OpenBatch                 // MaintWorkers N&15; with N&16 BatchRows flushes before it reads
	Flush                     //
	Close                     //
	Discard                   //
	CreateView                // shape from Seed; N: strategy slot (bits 0-1, mod 3: 2 is StrategyFromBase, else StrategyAuto), aggregate (bit 3), or with bit 2 a sibling of the Seed-th live non-aggregate view
	DropView                  // the N-th live view
	CreateIndex               // column set N%4 of the table: j, v, f, (j, v); (j, v) for f on a table without one
	AddForeignKey             // declare the table's f → parent key, if not declared yet
	Save                      //
	Load                      // the last Save, if any
	Fault                     // fail the Seed-th failpoint site of the next commit, as a panic with N&1; Seed 0 only counts sites
	Round                     // 1+N%4 goroutines stage into the open batch, one FK group each
	Query                     // shape from Seed, or with N&1 the (N>>1)-th live non-aggregate view's; a subset of its columns
	BatchRows                 // the N-th live view's rows while a batch is open
	numKinds
)

var kindNames = [numKinds]string{"insert", "delete", "update", "truncate", "orphan-all", "churn", "reparent",
	"open-batch", "flush", "close", "discard", "create-view", "drop-view", "create-index",
	"add-foreign-key", "save", "load", "fault", "round", "query", "batch-rows"}

func (k Kind) String() string { return kindNames[k] }

// syncBit in a statement op's N runs it synchronously even while a batch is
// open, so the flush re-validates staged rows against what it wrote
// (DESIGN.md §11).
const syncBit = 0x80

// Op is one step of a script. Its fields mean what its kind says; every
// value of every field is valid, so decoded bytes are always a script.
type Op struct {
	Kind Kind
	T    uint8  // table, as an index into the script's tables
	N    uint8  // count, flags or selector
	Seed uint32 // the op's own randomness
}

func (op Op) String() string {
	return fmt.Sprintf("%v T=%d N=%#x seed=%d", op.Kind, op.T, op.N, op.Seed)
}

// Script is a catalog draw plus the ops to run on it.
type Script struct {
	// Tables are created in order; a table's Parent precedes it.
	Tables  []fixture.DrawnTable
	Rows    int    // initial rows per table
	Seed    uint32 // the initial rows
	Readers int    // snapshot reader goroutines for the whole run
	Ops     []Op
}

// Gen draws scripts. Zero fields take the defaults noted.
type Gen struct {
	Seed    int64
	Ops     int // ops to draw; 0 means 80
	Tables  int // tables; 0 means 3 to 5
	Views   int // most views alive at once; 0 means 4
	Readers int // snapshot reader goroutines
	// Strategies (CreateView's strategy slots) and Workers are what
	// CreateView and OpenBatch draw from; nil means every value (0, 1 and
	// 2; 0 and 2).
	Strategies []uint8
	Workers    []int
	// Weights overrides the default weight of an op kind.
	Weights map[Kind]int
}

var defaultWeights = [numKinds]int{
	Insert: 10, Delete: 6, Update: 6, Truncate: 1, OrphanAll: 1, Churn: 2, Reparent: 2,
	OpenBatch: 3, Flush: 4, Close: 2, Discard: 1,
	CreateView: 4, DropView: 2, CreateIndex: 1, AddForeignKey: 2,
	Save: 1, Load: 2, Fault: 2, Round: 2, Query: 2, BatchRows: 2,
}

// Script draws one script.
func (g Gen) Script() Script {
	rng := rand.New(rand.NewSource(g.Seed))
	s := Script{Rows: 8, Seed: rng.Uint32(), Readers: g.Readers}
	n := cmp.Or(g.Tables, 3+rng.Intn(3))
	for i := 0; i < n; i++ {
		t := fixture.DrawnTable{Name: string(rune('A' + i)), Index: rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			t.Dist = fixture.Dist(1 + rng.Intn(int(fixture.NumDists)-1))
		}
		if i > 0 && rng.Intn(3) > 0 {
			t.Parent, t.FK = string(rune('A'+rng.Intn(i))), rng.Intn(2) == 0
		}
		s.Tables = append(s.Tables, t)
	}
	w := defaultWeights
	for k, v := range g.Weights {
		w[k] = v
	}
	total := 0
	for _, v := range w {
		total += v
	}
	strategies := orAll(g.Strategies, 0, 1, 2)
	workers := orAll(g.Workers, 0, 2)
	maxViews := cmp.Or(g.Views, 4)
	views, batch, saved := 0, false, false
	var shapes []uint32
	for len(s.Ops) < cmp.Or(g.Ops, 80) {
		op := Op{T: uint8(rng.Intn(n)), N: uint8(rng.Intn(256)), Seed: rng.Uint32()}
		for pick := rng.Intn(total); pick >= w[op.Kind]; op.Kind++ {
			pick -= w[op.Kind]
		}
		// A script opens with views, so most ops have something to maintain.
		if len(s.Ops) < 2 && views == 0 && w[CreateView] > 0 {
			op.Kind = CreateView
		}
		switch op.Kind {
		case Insert, Delete, Update, Truncate, OrphanAll, Churn, Reparent:
			if rng.Intn(3) > 0 {
				op.N &^= syncBit
			}
		case OpenBatch:
			if batch {
				continue
			}
			batch, op.N = true, uint8(workers[rng.Intn(len(workers))])|uint8(op.Seed&16)
		case Flush, Close, Discard, Round, BatchRows:
			if !batch {
				continue
			}
			batch = op.Kind != Close
		case CreateView:
			if views >= maxViews {
				continue
			}
			views++
			if len(shapes) > 0 && rng.Intn(3) == 0 {
				op.Seed = shapes[rng.Intn(len(shapes))] // a duplicate shape shares its subplans
			}
			shapes = append(shapes, op.Seed)
			op.N = strategies[rng.Intn(len(strategies))]
			switch rng.Intn(4) {
			case 0:
				op.N |= 8 // an aggregate
			case 1:
				// A sibling: a live view's shape with its selection's constant
				// redrawn, which joins that view's family. Now and then the new
				// member leaves again at once, while its sibling stays.
				op.N |= 4
				if rng.Intn(3) == 0 {
					s.Ops = append(s.Ops, op)
					op = Op{Kind: DropView, N: uint8(views - 1)}
					views--
				}
			}
		case DropView:
			if views == 0 {
				continue
			}
			views--
		case AddForeignKey:
			// Now and then drop the newest view right after: the constraint
			// may have adopted an index the view arranged, and must keep it.
			if views > 0 && rng.Intn(2) == 0 {
				s.Ops = append(s.Ops, op)
				op = Op{Kind: DropView, N: uint8(views - 1)}
				views--
			}
		case Save:
			saved = true
		case Load:
			if !saved {
				op.Kind, saved = Save, true
				break
			}
			// Registered views make the facade refuse a load, so mostly
			// drop them all first to let it through.
			if rng.Intn(4) > 0 {
				for range views {
					s.Ops = append(s.Ops, Op{Kind: DropView})
				}
				views = 0
			}
		case Fault:
			op.Seed = 1 + op.Seed%12
		}
		s.Ops = append(s.Ops, op)
	}
	return s
}

func orAll[T any](v []T, all ...T) []T {
	if v == nil {
		return all
	}
	return v
}
