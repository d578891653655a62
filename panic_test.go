package ojv_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"ojv"
	"ojv/internal/algebra"
)

// TestPanicContainedAtCommitComponent: a FailPoint that panics instead of
// returning an error, hit by a flush of two components run inline and on
// two workers, and by a synchronous statement. Every write fails with a
// *ojv.PanicError carrying the panic value and its stack, every table and
// view reads exactly as before (fingerprints and View.Check), the batch's
// Err is set and its statements stay pending, and once the FailPoint stops
// panicking the retried flush and the next statement succeed.
func TestPanicContainedAtCommitComponent(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var armed atomic.Bool
			opts := ojv.Options{FailPoint: func(site string) error {
				if armed.Load() {
					panic("injected panic at " + site)
				}
				return nil
			}}
			db := newShopDB(t)
			db.MustCreateTable("x", ojv.Cols(ojv.IntCol("xk"), ojv.IntCol("xj")), "xk")
			db.MustCreateTable("y", ojv.Cols(ojv.IntCol("yk"), ojv.IntCol("yj")), "yk")
			views := []*ojv.View{shopView(t, db, opts)}
			xy, err := db.CreateView("xy", ojv.Table("x").LeftJoin(ojv.Table("y"), ojv.Eq("x", "xj", "y", "yj")),
				ojv.Columns("x.xk", "x.xj", "y.yk", "y.yj"), opts)
			if err != nil {
				t.Fatal(err)
			}
			views = append(views, xy)
			state := func() string {
				var parts []string
				for _, name := range []string{"customer", "orders", "lineitem", "x", "y"} {
					rows := db.TableSnapshot(name).Rows()
					enc := make([]string, len(rows))
					for i, r := range rows {
						enc[i] = r.String()
					}
					sort.Strings(enc)
					parts = append(parts, name+": "+strings.Join(enc, " "))
				}
				for _, v := range views {
					parts = append(parts, v.Name()+": "+viewFingerprint(v))
				}
				return strings.Join(parts, "\n")
			}
			checkViews := func(when string) {
				t.Helper()
				for _, v := range views {
					if err := v.Check(); err != nil {
						t.Fatalf("%s: view %s: %v", when, v.Name(), err)
					}
				}
			}
			wantPanic := func(when string, err error) {
				t.Helper()
				var pe *ojv.PanicError
				if !errors.As(err, &pe) || !strings.HasPrefix(fmt.Sprint(pe.Value), "injected panic") || len(pe.Stack) == 0 {
					t.Fatalf("%s: error %v, want a *PanicError with the panic value and a stack", when, err)
				}
			}

			before := state()
			wb := db.NewWriteBatch(ojv.BatchOptions{MaintWorkers: workers})
			stage := func() {
				t.Helper()
				for _, st := range []struct {
					table string
					row   ojv.Row
				}{
					{"customer", ojv.Row{ojv.Int(50), ojv.Str("zed")}},
					{"x", ojv.Row{ojv.Int(1), ojv.Int(7)}},
					{"y", ojv.Row{ojv.Int(1), ojv.Int(7)}},
				} {
					if err := wb.Insert(st.table, []ojv.Row{st.row}); err != nil {
						t.Fatal(err)
					}
				}
			}
			stage()
			armed.Store(true)
			wantPanic("flush", wb.Flush())
			if wb.Err() == nil || wb.PendingStatements() == 0 {
				t.Fatalf("after the panicking flush: Err() %v, %d statements pending", wb.Err(), wb.PendingStatements())
			}
			if got := state(); got != before {
				t.Fatalf("the panicking flush changed the database:\n%s\nwant\n%s", got, before)
			}
			checkViews("after the panicking flush")
			wantPanic("statement", db.Insert("x", []ojv.Row{{ojv.Int(2), ojv.Int(7)}}))
			if got := state(); got != before {
				t.Fatalf("the panicking statement changed the database:\n%s\nwant\n%s", got, before)
			}

			armed.Store(false)
			if err := wb.Flush(); err != nil {
				t.Fatalf("retried flush: %v", err)
			}
			if err := db.Insert("x", []ojv.Row{{ojv.Int(2), ojv.Int(7)}}); err != nil {
				t.Fatalf("next statement: %v", err)
			}
			if xy.Len() != 2 {
				t.Fatalf("view xy holds %d rows after the recovered writes, want 2", xy.Len())
			}
			checkViews("after recovery")
			if err := wb.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// panicOnce is a predicate whose first evaluation after arming panics.
type panicOnce struct {
	ojv.Pred
	armed *atomic.Bool
}

func (p panicOnce) Compile(sch ojv.Schema) (func(ojv.Row) algebra.Tri, error) {
	f, err := p.Pred.Compile(sch)
	if err != nil {
		return nil, err
	}
	return func(r ojv.Row) algebra.Tri {
		if p.armed.CompareAndSwap(true, false) {
			panic("injected panic in a member's predicate")
		}
		return f(r)
	}, nil
}

func (p panicOnce) String() string { return "panicOnce(" + p.Pred.String() + ")" }

// TestPanicInStoreMutationRebuildsFamily: a panic inside a view store's
// insert — after the slot is taken, before the changeset logs it — tears
// the family's changeset, which its undo log cannot restore. The write
// fails with a *ojv.PanicError raised in the store, the family is rebuilt
// from the restored base tables (view.rebuilds), every table and view reads
// exactly as before, and the next statement succeeds.
func TestPanicInStoreMutationRebuildsFamily(t *testing.T) {
	var armed atomic.Bool
	metrics := ojv.NewMetrics()
	db := newShopDB(t)
	create := func(name string, p ojv.Pred) *ojv.View {
		t.Helper()
		v, err := db.CreateView(name, ojv.Table("customer").Where(p).LeftJoin(ojv.Table("orders"),
			ojv.Eq("customer", "ck", "orders", "ock")),
			ojv.Columns("customer.ck", "customer.name", "orders.ok", "orders.total"), ojv.Options{Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// The second view widens the family and heads its disjunction, so σ
	// over the disjunction accepts a new customer without evaluating the
	// first view's predicate: its first evaluation is the membership bit
	// the store computes inside insertRow.
	views := []*ojv.View{
		create("narrow", panicOnce{ojv.Cmp("customer", "ck", algebra.OpGt, ojv.Int(1)), &armed}),
		create("wide", ojv.Cmp("customer", "ck", algebra.OpGt, ojv.Int(0))),
	}
	if views[0].Maintainer() != views[1].Maintainer() {
		t.Fatal("the two views did not form one family")
	}
	state := func() string {
		parts := []string{fmt.Sprint(db.TableSnapshot("customer").Rows())}
		for _, v := range views {
			parts = append(parts, v.Name()+": "+viewFingerprint(v))
		}
		return strings.Join(parts, "\n")
	}
	before := state()
	armed.Store(true)
	err := db.Insert("customer", []ojv.Row{{ojv.Int(50), ojv.Str("zed")}})
	var pe *ojv.PanicError
	if !errors.As(err, &pe) || !strings.Contains(string(pe.Stack), "insertRow") {
		t.Fatalf("error %v, want a *PanicError raised inside the store's insertRow", err)
	}
	if n := metrics.Snapshot()["view.rebuilds"]; n != 1 {
		t.Fatalf("view.rebuilds = %d after a panic inside a store mutation, want 1", n)
	}
	if got := state(); got != before {
		t.Fatalf("the panicking statement changed the database:\n%s\nwant\n%s", got, before)
	}
	for _, v := range views {
		if err := v.Check(); err != nil {
			t.Fatalf("view %s after the rebuild: %v", v.Name(), err)
		}
	}
	if err := db.Insert("customer", []ojv.Row{{ojv.Int(50), ojv.Str("zed")}}); err != nil {
		t.Fatalf("next statement: %v", err)
	}
	for _, v := range views {
		if err := v.Check(); err != nil {
			t.Fatalf("view %s after the next statement: %v", v.Name(), err)
		}
	}
	if got := views[0].Len(); got != 3 {
		t.Fatalf("view narrow holds %d rows, want 3", got)
	}
}
