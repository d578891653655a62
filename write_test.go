package ojv

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"ojv/internal/rel"
)

// The write-path fault matrix. Every fault site of the one write path
// (Database.commit) is driven through the three shapes its input takes — a
// synchronous statement, a flush on the flushing goroutine, a flush on a
// worker pool — and each shape must fail with the same cause, leave the
// same state behind, and recover to the same final state.

var errInjected = errors.New("injected fault")

// faultDB is the matrix fixture: tables c and o (o references c) under two
// views that both join them — so every write to either table lands in one
// component maintaining both views — plus a disjoint table x under its own
// view, for the multi-component cases. Only the second c–o view (v2) has a
// failpoint: v1 has always staged by the time the fault fires.
type faultDB struct {
	*Database
	failSite string // v2 fails at this site while non-empty
	onFail   func() // runs as the fault fires, inside the write path
}

func newFaultDB(t *testing.T) *faultDB {
	t.Helper()
	f := &faultDB{Database: NewDatabase()}
	f.MustCreateTable("c", Cols(IntCol("ck"), StrCol("name")), "ck")
	f.MustCreateTable("o", Cols(IntCol("ok"), NotNull(IntCol("ock")), FloatCol("total")), "ok")
	f.MustCreateTable("x", Cols(IntCol("xk"), StrCol("tag")), "xk")
	if err := f.AddForeignKey("o", []string{"ock"}, "c", []string{"ck"}); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.Insert("c", []Row{{Int(1), Str("ada")}, {Int(2), Str("bob")}}))
	must(f.Insert("o", []Row{{Int(10), Int(1), Float(5)}}))
	must(f.Insert("x", []Row{{Int(1), Str("a")}}))
	join := Table("c").LeftJoin(Table("o"), Eq("c", "ck", "o", "ock"))
	_, err := f.CreateView("v1", join, Columns("c.ck", "c.name", "o.ok", "o.total"))
	must(err)
	_, err = f.CreateView("v2", join, Columns("c.ck", "o.ok"), Options{FailPoint: func(site string) error {
		if site != f.failSite {
			return nil
		}
		if f.onFail != nil {
			f.onFail()
		}
		return fmt.Errorf("%w at %s", errInjected, site)
	}})
	must(err)
	_, err = f.CreateView("vx", Table("x"), Columns("x.xk", "x.tag"))
	must(err)
	return f
}

// fingerprint renders the live base tables, their committed epochs (which
// must agree: nothing is in flight) and every view, sorted.
func (f *faultDB) fingerprint(t *testing.T) string {
	t.Helper()
	render := func(rows []Row) string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.String()
		}
		sort.Strings(out)
		return strings.Join(out, "\n")
	}
	var sb strings.Builder
	for _, name := range []string{"c", "o", "x"} {
		live := render(f.cat.Table(name).Rows())
		if snap := render(f.TableSnapshot(name).Rows()); snap != live {
			t.Errorf("table %s: committed epoch differs from the live table\n--- epoch ---\n%s\n--- live ---\n%s", name, snap, live)
		}
		fmt.Fprintf(&sb, "%s:\n%s\n", name, live)
	}
	for _, name := range []string{"v1", "v2", "vx"} {
		fmt.Fprintf(&sb, "%s:\n%s\n", name, render(f.View(name).Rows()))
	}
	return sb.String()
}

// writer is the statement surface *Database (synchronous) and *WriteBatch
// (staged) share; stmt is one statement against either.
type writer interface {
	Insert(string, []Row) error
	Delete(string, [][]Value) ([]Row, error)
	Update(string, []Value, Row) error
}

type stmt func(w writer) error

func insertStmt(table string, rows ...Row) stmt {
	return func(w writer) error { return w.Insert(table, rows) }
}

// rootCause unwraps to the innermost error.
func rootCause(err error) error {
	for {
		next := errors.Unwrap(err)
		if next == nil {
			return err
		}
		err = next
	}
}

func TestWritePathFaultMatrix(t *testing.T) {
	shapes := []struct {
		name    string
		batch   bool
		workers int
	}{
		{"statement", false, 0},
		{"flush/workers=0", true, 0},
		{"flush/workers=4", true, 4},
	}
	cases := []struct {
		name string
		// ride is staged ahead of the failing statement, in the same
		// component: its steps apply first and must unwind. Flush shapes
		// only — a synchronous statement is a one-step plan.
		ride []stmt
		stmt stmt
		// interfere runs once the statement is staged (flush shapes) or just
		// before it executes (statement shape): a concurrent writer that
		// makes the base apply fail.
		interfere func(f *faultDB) error
		failSite  string
		onFail    func(f *faultDB)
		// wantErr is the cause every shape must report (errors.Is); nil
		// means the catalog rejects the base apply, and the shapes must agree
		// on its text.
		wantErr      error
		wantRollback bool // the unwind itself must fail too
		retry        bool // disarmed, the same statement must go through
	}{
		{
			name: "base apply fails at step 0",
			stmt: insertStmt("c", Row{Int(9), Str("eve")}),
			interfere: func(f *faultDB) error {
				return f.Insert("c", []Row{{Int(9), Str("dup")}})
			},
		},
		{
			name: "base apply fails at step 1",
			ride: []stmt{insertStmt("c", Row{Int(8), Str("ride")})},
			stmt: insertStmt("o", Row{Int(11), Int(2), Float(7)}),
			interfere: func(f *faultDB) error {
				return f.Insert("o", []Row{{Int(11), Int(1), Float(1)}})
			},
		},
		{
			// The update's first primary-insert is its added half's, which
			// runs once the removed half has staged in full; no statement
			// rides along, since a flush applies inserts before modifies.
			name: "modify fails in its added half",
			stmt: func(w writer) error {
				return w.Update("c", []Value{Int(1)}, Row{Int(1), Str("ada2")})
			},
			failSite: "primary-insert",
			wantErr:  errInjected,
			retry:    true,
		},
		{
			name:     "staged changeset rolls back",
			ride:     []stmt{insertStmt("c", Row{Int(8), Str("ride")})},
			stmt:     insertStmt("o", Row{Int(11), Int(2), Float(7)}),
			failSite: "primary-insert",
			wantErr:  errInjected,
			retry:    true,
		},
		{
			name:     "rollback also failed",
			stmt:     insertStmt("c", Row{Int(9), Str("eve")}),
			failSite: "primary-insert",
			// Sabotage: maintain v1 for the row's delete behind the write
			// path's back, which commits and frees the slot of the view row
			// v1's staged changeset inserted, so that changeset's rollback
			// finds the slot empty. The base unwind still runs.
			onFail: func(f *faultDB) {
				if _, err := f.View("v1").Maintainer().OnDelete("c", []rel.Row{{Int(9), Str("eve")}}); err != nil {
					panic(err)
				}
			},
			wantErr:      errInjected,
			wantRollback: true,
			retry:        true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var causes, failed, final []string
			for _, sh := range shapes {
				f := newFaultDB(t)
				var wb *WriteBatch
				run := func() error { return tc.stmt(f.Database) }
				if sh.batch {
					wb = f.NewWriteBatch(BatchOptions{MaintWorkers: sh.workers})
					for _, r := range append(tc.ride, tc.stmt) {
						if err := r(wb); err != nil {
							t.Fatalf("%s: staging: %v", sh.name, err)
						}
					}
					run = wb.Flush
				}
				if tc.interfere != nil {
					if err := tc.interfere(f); err != nil {
						t.Fatalf("%s: interfering write: %v", sh.name, err)
					}
				}
				stats1, stats2 := f.View("v1").LastStats, f.View("v2").LastStats
				f.failSite = tc.failSite
				if tc.onFail != nil {
					f.onFail = func() { tc.onFail(f) }
				}

				err := run()
				if err == nil {
					t.Fatalf("%s: faulted write succeeded", sh.name)
				}
				if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
					t.Errorf("%s: err = %v, want cause %v", sh.name, err, tc.wantErr)
				}
				if got := strings.Contains(err.Error(), "rollback also failed"); got != tc.wantRollback {
					t.Errorf("%s: err = %v, rollback failure reported = %v, want %v", sh.name, err, got, tc.wantRollback)
				}
				causes = append(causes, rootCause(err).Error())
				failed = append(failed, f.fingerprint(t))
				if f.View("v1").LastStats != stats1 || f.View("v2").LastStats != stats2 {
					t.Errorf("%s: LastStats published for a rolled-back write", sh.name)
				}
				if wb != nil {
					if !errors.Is(wb.Err(), rootCause(err)) {
						t.Errorf("%s: Err() = %v, want the flush error", sh.name, wb.Err())
					}
					if got, want := wb.PendingStatements(), len(tc.ride)+1; got != want {
						t.Errorf("%s: %d statements pending after the failed flush, want %d", sh.name, got, want)
					}
				}

				f.failSite, f.onFail = "", nil
				if tc.retry {
					if err := run(); err != nil {
						t.Fatalf("%s: disarmed retry: %v", sh.name, err)
					}
				} else if wb != nil {
					wb.Discard()
				}
				if wb != nil {
					if err := wb.Close(); err != nil {
						t.Fatalf("%s: close: %v", sh.name, err)
					}
				} else if tc.retry {
					// The flush shapes carried the ride statements along.
					for _, r := range tc.ride {
						if err := r(f.Database); err != nil {
							t.Fatalf("%s: ride statement: %v", sh.name, err)
						}
					}
				}
				for _, v := range []string{"v1", "v2", "vx"} {
					if err := f.View(v).Check(); err != nil {
						t.Errorf("%s: %s after recovery: %v", sh.name, v, err)
					}
				}
				final = append(final, f.fingerprint(t))
			}
			for i := 1; i < len(shapes); i++ {
				if causes[i] != causes[0] {
					t.Errorf("%s failed with %q, %s with %q", shapes[i].name, causes[i], shapes[0].name, causes[0])
				}
				if failed[i] != failed[0] {
					t.Errorf("state after the failed write differs between %s and %s\n--- %s ---\n%s--- %s ---\n%s",
						shapes[i].name, shapes[0].name, shapes[i].name, failed[i], shapes[0].name, failed[0])
				}
				if final[i] != final[0] {
					t.Errorf("final state differs between %s and %s\n--- %s ---\n%s--- %s ---\n%s",
						shapes[i].name, shapes[0].name, shapes[i].name, final[i], shapes[0].name, final[0])
				}
			}
		})
	}
}

// TestFlushComponentFailsAlone is the partial-failure contract at every
// pool size, the pool of none included: of two independent components the
// failed one rolls back alone and stays pending behind Err, the other
// commits and leaves the queue, and the retry — re-planned over what is
// left — flushes only the failed component's statements.
func TestFlushComponentFailsAlone(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			f := newFaultDB(t)
			metrics := NewMetrics()
			wb := f.NewWriteBatch(BatchOptions{MaintWorkers: workers, Metrics: metrics})
			if err := wb.Insert("c", []Row{{Int(9), Str("eve")}}); err != nil {
				t.Fatal(err)
			}
			if err := wb.Insert("x", []Row{{Int(2), Str("b")}}); err != nil {
				t.Fatal(err)
			}
			f.failSite = "primary-insert"
			err := wb.Flush()
			if !errors.Is(err, errInjected) {
				t.Fatalf("flush err = %v, want the injected fault", err)
			}
			if wb.Err() == nil {
				t.Error("failed flush did not stick in Err")
			}
			if got := f.TableSnapshot("x").Len(); got != 2 {
				t.Errorf("independent component: x has %d rows, want 2 (committed)", got)
			}
			if got := f.View("vx").Len(); got != 2 {
				t.Errorf("independent component: vx has %d rows, want 2 (committed)", got)
			}
			if got := f.TableSnapshot("c").Len(); got != 2 {
				t.Errorf("failed component: c has %d rows, want 2 (rolled back)", got)
			}
			if got := wb.PendingStatements(); got != 1 {
				t.Errorf("%d statements pending, want 1 (the failed component's)", got)
			}
			if _, ok, _ := wb.Get("x", []Value{Int(2)}); !ok {
				t.Error("committed row invisible through the batch")
			}

			f.failSite = ""
			if err := wb.Close(); err != nil {
				t.Fatalf("retry: %v", err)
			}
			snap := metrics.Snapshot()
			if snap["view.flush.count"] != 1 {
				t.Errorf("retry: flush.count=%d, want 1", snap["view.flush.count"])
			}
			if got := f.TableSnapshot("x").Len(); got != 2 {
				t.Errorf("x has %d rows after the retry, want 2 (committed entries must not replay)", got)
			}
			for _, v := range []string{"v1", "v2", "vx"} {
				if err := f.View(v).Check(); err != nil {
					t.Errorf("%s after the retry: %v", v, err)
				}
			}
			if got := f.View("v1").Len(); got != 3 {
				t.Errorf("v1 has %d rows after the retry, want 3", got)
			}
		})
	}
}

// TestPartitionFollowsForeignKeys pins the conflict analysis to the live
// constraints: a foreign key declared after a view was registered widens
// that view's footprint (its plans may now probe the parent), so a write
// to the parent alone must take the view into its component, and child
// and parent deltas must commit as one component.
func TestPartitionFollowsForeignKeys(t *testing.T) {
	db := NewDatabase()
	db.MustCreateTable("p", Cols(IntCol("pk"), StrCol("name")), "pk")
	db.MustCreateTable("c", Cols(IntCol("ck"), NotNull(IntCol("cpk"))), "ck")
	v, err := db.CreateView("vc", Table("c"), Columns("c.ck", "c.cpk"))
	if err != nil {
		t.Fatal(err)
	}
	if comps := db.partition([]string{"c", "p"}); len(comps) != 2 || len(comps[1].families) != 0 {
		t.Fatalf("unrelated tables: %d components, p's families %v; want 2 components, p's without views", len(comps), comps[len(comps)-1].families)
	}
	if err := db.AddForeignKey("c", []string{"cpk"}, "p", []string{"pk"}); err != nil {
		t.Fatal(err)
	}
	if comps := db.partition([]string{"p"}); len(comps) != 1 || len(comps[0].families) != 1 || comps[0].families[0] != v.fam {
		t.Fatalf("parent-only write after the foreign key: components %+v, want one maintaining vc", comps)
	}
	if comps := db.partition([]string{"c", "p"}); len(comps) != 1 {
		t.Fatalf("FK-adjacent deltas split into %d components, want 1", len(comps))
	}
}
