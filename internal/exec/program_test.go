package exec

import (
	"cmp"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ojv/internal/algebra"
	"ojv/internal/fixture"
	"ojv/internal/rel"
)

// This file proves a compiled Program is reusable and stateless: one
// Compile, many Starts — with different deltas, both delta directions,
// every BatchSize setting, base tables mutated in between,
// abandoned runs, and concurrent runs — each equal to the materializing
// oracle and to a pipeline compiled fresh for that run; and that an
// Instance, restarted in place for every one of those runs, is too.

// drainProgram starts p under ctx and drains it, failing the test on any
// error.
func drainProgram(t testing.TB, p *Program, ctx *Context) Relation {
	t.Helper()
	return drain(t, ctx, p.Start)
}

// drain starts a run with start and drains it, failing the test on any
// error.
func drain(t testing.TB, ctx *Context, start func(*Context) (Source, error)) Relation {
	t.Helper()
	src, err := start(ctx)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	if err := src.Open(); err != nil {
		src.Close()
		t.Fatalf("open: %v", err)
	}
	out, err := Drain(src)
	if cerr := src.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out
}

// reuseCases is the TestStreamEquivalence table plus index probes into a
// table's old state, whose per-run half (exclude set, transient delta
// index) is the most stateful thing Start binds.
func reuseCases(rng *rand.Rand) []streamCase {
	cases := streamCases(rng)
	for _, kind := range allJoinKinds {
		if kind == algebra.RightOuterJoin || kind == algebra.FullOuterJoin {
			continue
		}
		cases = append(cases, streamCase{
			name: "join-oldprobe-" + kind.String(),
			expr: &algebra.Join{
				Kind:  kind,
				Left:  &algebra.TableRef{Name: "A"},
				Right: &algebra.OldTableRef{Name: "B"},
				Pred:  algebra.Eq("A", "Aj", "B", "Bj"),
			},
		})
	}
	return cases
}

// deltaTable names the table whose delta the case reads, through a DeltaRef
// or an OldTableRef: a context binds one table's delta. Cases that read none
// get A's.
func (tc streamCase) deltaTable() string {
	var find func(e algebra.Expr) string
	find = func(e algebra.Expr) string {
		switch n := e.(type) {
		case *algebra.DeltaRef:
			return n.Name
		case *algebra.OldTableRef:
			return n.Name
		}
		for _, c := range e.Children() {
			if name := find(c); name != "" {
				return name
			}
		}
		return ""
	}
	return cmp.Or(find(tc.expr), "A")
}

// reuseRun is one run's bindings over the shared catalog.
type reuseRun struct {
	fx      *streamFixture
	rng     *rand.Rand
	nextKey int64
}

// mutate changes the base tables every program reads: fresh rows into A
// and B, one old row out of each.
func (r *reuseRun) mutate(t testing.TB) {
	t.Helper()
	for _, name := range []string{"A", "B"} {
		tab := r.fx.cat.Table(name)
		victim := sortedRows(tab.Rows())[0]
		if _, err := r.fx.cat.Delete(name, [][]rel.Value{victim.Project(tab.KeyCols())}); err != nil {
			t.Fatal(err)
		}
		rows := []rel.Row{fixture.RandRow(r.rng, r.nextKey), fixture.RandRow(r.rng, r.nextKey+1)}
		r.nextKey += 2
		if err := r.fx.cat.Insert(name, rows); err != nil {
			t.Fatal(err)
		}
	}
}

// context binds run i's delta of table: an insert run's delta is rows now
// in the table, a delete run's rows no longer there, as maintenance would
// see them.
func (r *reuseRun) context(i, batch int, table string) *Context {
	insert := i%2 == 0
	var delta []rel.Row
	if insert {
		delta = sortedRows(r.fx.cat.Table(table).Rows())[i : i+4]
	} else {
		for k := 0; k < 3; k++ {
			delta = append(delta, fixture.RandRow(r.rng, r.nextKey))
			r.nextKey++
		}
	}
	return &Context{
		Catalog:       r.fx.cat,
		DeltaTable:    table,
		Delta:         delta,
		DeltaIsInsert: insert,
		Rels:          map[string]Relation{"__r": {Schema: r.fx.relA.Schema, Rows: r.fx.relA.Rows[i%3:]}},
		BatchSize:     batch,
	}
}

func TestProgramReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	// Small tables: the quadratic oracle runs once per run here, not once
	// per case.
	fx := newStreamFixture(t, rng, 40)
	runs := &reuseRun{fx: fx, rng: rng, nextKey: 1 << 20}
	rels := map[string]rel.Schema{"__r": fx.relA.Schema}
	for _, tc := range reuseCases(rng) {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Compile(fx.cat, rels, tc.expr)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			inst := prog.Instance()
			// Six runs: each BatchSize setting once per delta direction.
			for i := range 2 * len(streamSettings) {
				batch := streamSettings[i%len(streamSettings)]
				runs.mutate(t)
				ctx := runs.context(i, batch, tc.deltaTable())
				want, err := evalReference(ctx, tc.expr)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if i == 2 {
					// A run abandoned after one batch must leave nothing
					// behind for the next one, of the program or of the
					// instance.
					for _, start := range []func(*Context) (Source, error){prog.Start, inst.Start} {
						src, err := start(ctx)
						if err != nil {
							t.Fatal(err)
						}
						if err := src.Open(); err != nil {
							src.Close()
							t.Fatal(err)
						}
						var b Batch
						if _, err := src.Next(&b); err != nil {
							t.Fatal(err)
						}
						if err := src.Close(); err != nil {
							t.Fatal(err)
						}
					}
				}
				got := drainProgram(t, prog, ctx)
				if restarted := drain(t, ctx, inst.Start); !sameRelation(restarted, got) {
					t.Fatalf("run %d: the restarted instance and a fresh start disagree", i)
				}
				fresh := evalOK(t, ctx, tc.expr)
				if got.Schema.String() != want.Schema.String() || got.Schema.String() != fresh.Schema.String() {
					t.Fatalf("run %d: schema %s, oracle %s, fresh pipeline %s", i, got.Schema, want.Schema, fresh.Schema)
				}
				if !sameRelation(got, want) {
					t.Fatalf("run %d (batch=%d insert=%v): %d rows differ from oracle's %d rows\n%s",
						i, batch, ctx.DeltaIsInsert, len(got.Rows), len(want.Rows), tc.expr)
				}
				if !sameRelation(got, fresh) {
					t.Fatalf("run %d: reused program and fresh pipeline disagree", i)
				}
			}
		})
	}
}

// TestProgramConcurrentStart starts one program from four goroutines at
// once (view.Maintainer.Plan hands the same program to concurrent Query and
// EXPLAIN callers); under -race this is the proof that Start shares no
// mutable state through the program.
func TestProgramConcurrentStart(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	fx := newStreamFixture(t, rng, 40)
	runs := &reuseRun{fx: fx, rng: rng, nextKey: 1 << 20}
	rels := map[string]rel.Schema{"__r": fx.relA.Schema}
	for _, tc := range reuseCases(rng) {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Compile(fx.cat, rels, tc.expr)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			const goroutines = 4
			ctxs := make([]*Context, goroutines)
			wants := make([]Relation, goroutines)
			for g := range ctxs {
				ctxs[g] = runs.context(g, streamSettings[g%len(streamSettings)], tc.deltaTable())
				if wants[g], err = evalReference(ctxs[g], tc.expr); err != nil {
					t.Fatalf("oracle: %v", err)
				}
			}
			var wg sync.WaitGroup
			for g := range ctxs {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for rep := 0; rep < 2; rep++ {
						src, err := prog.Start(ctxs[g])
						if err != nil {
							t.Errorf("goroutine %d: start: %v", g, err)
							return
						}
						err = src.Open()
						var got Relation
						if err == nil {
							got, err = Drain(src)
						}
						if cerr := src.Close(); err == nil {
							err = cerr
						}
						if err != nil {
							t.Errorf("goroutine %d: %v", g, err)
							return
						}
						if !sameRelation(got, wants[g]) {
							t.Errorf("goroutine %d rep %d: %d rows differ from oracle's %d", g, rep, len(got.Rows), len(wants[g].Rows))
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestProgramPlan pins a program's rendering: String names each join's
// algorithm and the key or index an index join probes, and an index join's
// right operand lives in its probe plan rather than as an operator.
func TestProgramPlan(t *testing.T) {
	cat, err := fixture.RandCatalog(rand.New(rand.NewSource(5)), 30)
	if err != nil {
		t.Fatal(err)
	}
	b, c, d := &algebra.TableRef{Name: "B"}, &algebra.TableRef{Name: "C"}, &algebra.TableRef{Name: "D"}
	inner := &algebra.Join{Kind: algebra.LeftOuterJoin, Left: &algebra.DeltaRef{Name: "A"}, Right: b, Pred: algebra.Eq("A", "Aj", "B", "Bj")}
	byKey := &algebra.Join{Kind: algebra.InnerJoin, Left: inner, Right: c, Pred: algebra.Eq("B", "Bv", "C", "Ck")}
	root := &algebra.Join{Kind: algebra.FullOuterJoin, Left: byKey, Right: d, Pred: algebra.Eq("C", "Cj", "D", "Dj")}
	prog, err := Compile(cat, nil, root)
	if err != nil {
		t.Fatal(err)
	}
	const want = `join.hash[fo] build right on C.Cj=D.Dj
  join.index[join] probe C via unique key(Ck)
    join.index[lo] probe B via index B_j(Bj)
      scan ΔA
  scan D
`
	if got := prog.String(); got != want {
		t.Errorf("physical plan:\n%s\nwant:\n%s", got, want)
	}
	if prog.Generation() != cat.DesignGeneration() {
		t.Errorf("generation %d, catalog at %d", prog.Generation(), cat.DesignGeneration())
	}
}

// TestProgramWants pins what the compiler reports about secondary indexes:
// one (table, column set) per equijoin whose right operand is a base table
// (or its old state) under any chain of selections and whose equi-columns
// are not the table's key — with or without an index to serve it — and
// nothing for a join no index could serve. Compile only reports: the
// catalog's design stands.
func TestProgramWants(t *testing.T) {
	cat, err := fixture.RandCatalogNoIndex(rand.New(rand.NewSource(9)), 30)
	if err != nil {
		t.Fatal(err)
	}
	a, b := &algebra.TableRef{Name: "A"}, &algebra.TableRef{Name: "B"}
	equi := algebra.Eq("A", "Aj", "B", "Bj")
	join := func(kind algebra.JoinKind, right algebra.Expr, pred algebra.Pred) algebra.Expr {
		return &algebra.Join{Kind: kind, Left: a, Right: right, Pred: pred}
	}
	bj := []Want{{Table: "B", Cols: []int{1}}}
	cases := []struct {
		name string
		expr algebra.Expr
		want []Want
	}{
		{"base", join(algebra.LeftOuterJoin, b, equi), bj},
		{"selected-twice", join(algebra.InnerJoin, twiceSelectedB(), equi), bj},
		{"old-state", join(algebra.AntiJoin, &algebra.Select{Input: &algebra.OldTableRef{Name: "B"}, Pred: algebra.CmpConst("B", "Bv", algebra.OpLt, rel.Int(9))}, equi), bj},
		{"two-columns", join(algebra.SemiJoin, b, algebra.MakeAnd(algebra.Eq("A", "Av", "B", "Bv"), equi)), []Want{{Table: "B", Cols: []int{1, 2}}}},
		{"unique-key", join(algebra.InnerJoin, b, algebra.Eq("A", "Aj", "B", "Bk")), nil},
		{"duplicate-right-column", join(algebra.InnerJoin, b, algebra.MakeAnd(equi, algebra.Eq("A", "Av", "B", "Bj"))), nil},
		{"full-outer", join(algebra.FullOuterJoin, b, equi), nil},
		{"non-leaf-right", join(algebra.InnerJoin, &algebra.Dedup{Input: b}, equi), nil},
		{"no-equi-conjunct", join(algebra.InnerJoin, b, algebra.Cmp{Left: algebra.ColOperand("A", "Av"), Op: algebra.OpLt, Right: algebra.ColOperand("B", "Bv")}), nil},
	}
	gen := cat.DesignGeneration()
	for _, tc := range cases {
		prog, err := Compile(cat, nil, tc.expr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := prog.Wants(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: wants %v, want %v", tc.name, got, tc.want)
		}
		if strings.Contains(prog.String(), "join.index") != (tc.name == "unique-key") {
			t.Errorf("%s: unexpected algorithm on an index-less catalog:\n%s", tc.name, prog)
		}
	}
	if cat.DesignGeneration() != gen || len(cat.Table("B").Indexes()) != 0 {
		t.Fatal("Compile changed the catalog's physical design")
	}
	// With the index in place the same joins probe — the twice-selected leaf
	// through both predicates — and report the same needs.
	if _, err := cat.CreateIndex("B", "B_j", "Bj"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases[:3] {
		prog, err := Compile(cat, nil, tc.expr)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(prog.String(), "probe B") || strings.Contains(prog.String(), "join.hash") {
			t.Errorf("%s: an indexed leaf was not probed:\n%s", tc.name, prog)
		}
		if got := prog.Wants(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: wants %v once served, want %v", tc.name, got, tc.want)
		}
	}
	prog, err := Compile(cat, nil, cases[1].expr)
	if err != nil {
		t.Fatal(err)
	}
	if want := "join.index[join] probe B via index B_j(Bj) select (B.Bv<70 and B.Bv>5)\n  scan A\n"; prog.String() != want {
		t.Errorf("physical plan:\n%s\nwant:\n%s", prog, want)
	}
}
