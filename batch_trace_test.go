package ojv_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ojv"
	"ojv/internal/obs"
)

// The flush golden pins the whole recorded forest of one group commit: the
// view.flush root (plan, one flush.step per single-table statement, commit)
// and the view.maintain / changeset.commit roots the maintenance layer
// records per step, in order. Durations are nondeterministic and render
// disabled. Regenerate with:
//
//	go test -run TestGoldenFlushTrace -update .

var updateFlushGolden = flag.Bool("update", false, "rewrite the golden trace files in testdata")

// goldenCompare diffs got against the named testdata file, rewriting the
// file instead when -update is set (mirrors internal/view/trace_test.go).
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateFlushGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (re-run with -update if the change is intended)\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestGoldenFlushTrace(t *testing.T) {
	tracer := ojv.NewTracer()
	db := newShopDB(t)
	v, err := db.CreateView("shop",
		ojv.Table("customer").LeftJoin(
			ojv.Table("orders").FullJoin(ojv.Table("lineitem"),
				ojv.Eq("orders", "ok", "lineitem", "lok")),
			ojv.Eq("customer", "ck", "orders", "ock")),
		ojv.Columns("customer.ck", "customer.name", "orders.ok", "orders.total",
			"lineitem.lok", "lineitem.ln", "lineitem.qty"),
		ojv.Options{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	tracer.Reset() // drop spans recorded during materialization

	wb := db.NewWriteBatch(ojv.BatchOptions{Tracer: tracer})
	// A fixed statement mix exercising every step op and two coalescings:
	// the insert+delete of customer 8 annihilates, the double update of
	// customer 9 composes.
	mustDo := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustDo(wb.Insert("customer", []ojv.Row{{ojv.Int(8), ojv.Str("gus")}, {ojv.Int(9), ojv.Str("eve")}}))
	_, err = wb.Delete("customer", [][]ojv.Value{{ojv.Int(8)}})
	mustDo(err)
	mustDo(wb.Update("customer", []ojv.Value{ojv.Int(9)}, ojv.Row{ojv.Int(9), ojv.Str("eva")}))
	mustDo(wb.Update("customer", []ojv.Value{ojv.Int(9)}, ojv.Row{ojv.Int(9), ojv.Str("evy")}))
	mustDo(wb.Update("customer", []ojv.Value{ojv.Int(2)}, ojv.Row{ojv.Int(2), ojv.Str("rob")}))
	_, err = wb.Delete("lineitem", [][]ojv.Value{{ojv.Int(10), ojv.Int(1)}})
	mustDo(err)
	mustDo(wb.Flush())
	mustDo(wb.Close())

	for _, r := range tracer.Roots() {
		if err := r.Validate(); err != nil {
			t.Errorf("root %s: %v", r.Name(), err)
		}
	}
	goldenCompare(t, "flush_trace.golden", obs.RenderTree(tracer.Roots(), false))
	if err := v.Check(); err != nil {
		t.Fatal(err)
	}
}
