package exec

import (
	"math/rand"
	"testing"

	"ojv/internal/fixture"
	"ojv/internal/rel"
)

// FuzzStreamEquivalence drives random SPOJ plans through the streaming
// pipeline at a fuzzed BatchSize and compares the result —
// as an order-insensitive multiset — against the materializing reference
// evaluator. Every plan is compiled once and started twice, with the
// catalog mutated in between, so state leaking from one run of a Program
// into the next is the fuzzer's to find. The catalog is kept small so even
// deep full-outer chains stay cheap per input.
func FuzzStreamEquivalence(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(1<<uint(seed%4)))
	}
	f.Fuzz(func(t *testing.T, seed int64, batch uint8) {
		rng := rand.New(rand.NewSource(seed))
		cat, err := fixture.RandCatalog(rng, 40)
		if err != nil {
			t.Fatal(err)
		}
		expr := fixture.RandSPOJ(rng)

		ctx := &Context{
			Catalog:   cat,
			BatchSize: int(batch % 64), // 0 means DefaultBatchSize
		}
		prog, err := Compile(cat, nil, expr)
		if err != nil {
			t.Fatalf("compile: %v\nplan: %s", err, expr)
		}
		for run := 0; run < 2; run++ {
			if run == 1 {
				// Between the runs every table loses a row and gains two.
				for _, name := range fixture.RandTables {
					n := string(name)
					tab := cat.Table(n)
					victim := tab.Rows()[0].Project(tab.KeyCols())
					if _, err := cat.Delete(n, [][]rel.Value{victim}); err != nil {
						t.Fatal(err)
					}
					if err := cat.Insert(n, []rel.Row{fixture.RandRow(rng, 1000), fixture.RandRow(rng, 1001)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			want, err := evalReference(&Context{Catalog: cat}, expr)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			got := drainProgram(t, prog, ctx)
			if got.Schema.String() != want.Schema.String() {
				t.Fatalf("run %d: schema %s, want %s\nplan: %s", run, got.Schema, want.Schema, expr)
			}
			if !sameRelation(got, want) {
				t.Fatalf("run %d batch=%d: pipeline produced %d rows, oracle %d rows\nplan: %s",
					run, ctx.BatchSize, len(got.Rows), len(want.Rows), expr)
			}
		}
	})
}
