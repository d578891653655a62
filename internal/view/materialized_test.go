package view

import (
	"testing"

	"ojv/internal/fixture"
	"ojv/internal/rel"
)

// storageFixture materializes V1 and returns the storage for white-box
// checks of the physical design (view keys, patterns, per-table indexes).
func storageFixture(t *testing.T, opts Options) *Materialized {
	t.Helper()
	_, m := newV1Maintainer(t, false, opts)
	return m.Materialized()
}

func TestViewKeyDeterminedByPattern(t *testing.T) {
	mv := storageFixture(t, Options{})
	seen := make(map[string]bool)
	for _, row := range mv.Rows() {
		k := mv.viewKey(row)
		if seen[k] {
			t.Fatalf("duplicate view key for %s", row)
		}
		seen[k] = true
	}
	if len(seen) != mv.Len() {
		t.Errorf("key count %d != len %d", len(seen), mv.Len())
	}
}

func TestPatternCountsSumToLen(t *testing.T) {
	mv := storageFixture(t, Options{})
	total := 0
	for _, c := range mv.patternCount {
		total += c
	}
	if total != mv.Len() {
		t.Errorf("pattern counts sum to %d, Len = %d", total, mv.Len())
	}
	// Every stored row's pattern corresponds to a normal-form term.
	nf := mv.Definition().NormalForm()
	valid := make(map[uint32]bool)
	for _, term := range nf.Terms {
		valid[mv.patternOf(term.Tables)] = true
	}
	for p, c := range mv.patternCount {
		if c > 0 && !valid[p] {
			t.Errorf("pattern %b has %d rows but matches no term", p, c)
		}
	}
}

func TestTermCardinalityMatchesScan(t *testing.T) {
	mv := storageFixture(t, Options{})
	nf := mv.Definition().NormalForm()
	for _, term := range nf.Terms {
		want := 0
		for _, row := range mv.Rows() {
			if mv.pattern(row) == mv.patternOf(term.Tables) {
				want++
			}
		}
		if got := mv.TermCardinality(term.Tables); got != want {
			t.Errorf("term %s: cardinality %d, scan %d", term.SourceKey(), got, want)
		}
	}
}

func TestPerTableIndexConsistency(t *testing.T) {
	mv := storageFixture(t, Options{})
	if mv.perTable == nil {
		t.Fatal("orphan index should be enabled by default")
	}
	// The index holds exactly the tuples of the rows, every entry points to
	// a live row that actually contains its tuple, and every row is indexed
	// under each of its non-null tables.
	for table := range mv.perTable {
		if _, err := checkChains(mv, table, nil); err != nil {
			t.Fatalf("index %s: %v", mv.tableOrder[table], err)
		}
		tks := tableKeys(mv, table)
		if n := mv.perTable[table].Len(); n != len(tks) {
			t.Fatalf("index %s has %d keys, the rows %d", mv.tableOrder[table], n, len(tks))
		}
		for tk := range tks {
			for _, h := range chainHandles(t, mv, table, tk) {
				sr := mv.rows.At(h)
				if got, ok := mv.rows.Lookup(sr.Key); !ok || got != h {
					t.Fatalf("index %s/%x points to missing row", mv.tableOrder[table], tk)
				}
				if rel.EncodeRowCols(sr.Row, mv.keyCols[table]) != tk {
					t.Fatalf("index %s entry mismatches row %s", mv.tableOrder[table], sr.Row)
				}
			}
		}
	}
	for _, h := range storeHandles(&mv.rows) {
		row := mv.rows.At(h).Row
		for table := range mv.tableOrder {
			if row[mv.witnessCol[table]].IsNull() {
				continue
			}
			tk := rel.EncodeRowCols(row, mv.keyCols[table])
			indexed := false
			for _, ch := range chainHandles(t, mv, table, tk) {
				indexed = indexed || ch == h
			}
			if !indexed {
				t.Fatalf("row %s not indexed under %s", row, mv.tableOrder[table])
			}
		}
	}
}

// tableKeys returns the encoded keys of table's tuples in the view's rows.
func tableKeys(mv *Materialized, table int) map[string]bool {
	tks := make(map[string]bool)
	for _, h := range storeHandles(&mv.rows) {
		if row := mv.rows.At(h).Row; !row[mv.witnessCol[table]].IsNull() {
			tks[rel.EncodeRowCols(row, mv.keyCols[table])] = true
		}
	}
	return tks
}

// probeKey builds the orphan-shaped view key containsTuple takes: table i's
// part is parts[i] (an encoded table key), NULL marks when parts[i] is "".
func probeKey(mv *Materialized, parts []string) string {
	var buf []byte
	for i, kc := range mv.keyCols {
		if parts[i] != "" {
			buf = append(buf, parts[i]...)
			continue
		}
		for range kc {
			buf = rel.AppendEncoded(buf, rel.Null)
		}
	}
	return string(buf)
}

func TestContainsTupleAgainstScan(t *testing.T) {
	for _, disable := range []bool{false, true} {
		mv := storageFixture(t, Options{DisableOrphanIndex: disable})
		nf := mv.Definition().NormalForm()
		// For every term and a sample of rows, containsTuple must agree
		// with a full scan.
		for _, term := range nf.Terms {
			mask := mv.patternOf(term.Tables)
			n := 0
			for _, row := range mv.Rows() {
				if mv.pattern(row)&mask != mask {
					continue
				}
				parts := make([]string, len(mv.tableOrder))
				for i := range mv.tableOrder {
					if mask&(1<<uint(i)) != 0 {
						parts[i] = rel.EncodeRowCols(row, mv.keyCols[i])
					}
				}
				if !mv.containsTuple(mask, probeKey(mv, parts)) {
					t.Fatalf("disable=%v: row %s not found for its own term %s", disable, row, term.SourceKey())
				}
				n++
				if n > 20 {
					break
				}
			}
		}
		// A fabricated key must not be found.
		parts := make([]string, len(mv.tableOrder))
		parts[0] = rel.EncodeValues(rel.Int(999999))
		if mv.containsTuple(1, probeKey(mv, parts)) {
			t.Errorf("disable=%v: phantom tuple found", disable)
		}
	}
}

func TestInsertRowRejectsDuplicates(t *testing.T) {
	_, m := newV1Maintainer(t, false, Options{})
	mv := m.Materialized()
	row := mv.Rows()[0]
	if err := m.Begin().insertRow("", mv.viewKey(row), row); err == nil || mv.rows.Pending() != 0 {
		t.Error("duplicate view key must be rejected, and logged nothing")
	}
	if _, ok := mv.rows.LookupBytes([]byte("no-such-key")); ok {
		t.Error("lookup of a missing key must report false")
	}
}

func TestMaterializeIsIdempotent(t *testing.T) {
	_, m := newV1Maintainer(t, false, Options{})
	before := m.Materialized().Len()
	if err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	if m.Materialized().Len() != before {
		t.Errorf("re-materialize changed row count: %d -> %d", before, m.Materialized().Len())
	}
	if err := Check(m); err != nil {
		t.Fatal(err)
	}
}

func TestOrphanKeyRoundTrip(t *testing.T) {
	mv := storageFixture(t, Options{})
	// For an orphan row of some term, the key built from the term's tables
	// alone must equal the row's own view key.
	nf := mv.Definition().NormalForm()
	for _, term := range nf.Terms {
		pat := mv.patternOf(term.Tables)
		for _, row := range mv.Rows() {
			if mv.pattern(row) != pat {
				continue
			}
			if orphanKey(mv, row, pat) != mv.viewKey(row) {
				t.Fatalf("orphan key mismatch for %s (term %s)", row, term.SourceKey())
			}
			// The per-table encoded keys concatenate to it too.
			parts := make([]string, len(mv.tableOrder))
			for i := range mv.tableOrder {
				if pat&(1<<uint(i)) != 0 {
					parts[i] = rel.EncodeRowCols(row, mv.keyCols[i])
				}
			}
			if probeKey(mv, parts) != mv.viewKey(row) {
				t.Fatalf("view key of %s is not the concatenation of its table keys", row)
			}
			break
		}
	}
}

func TestDefinitionAccessors(t *testing.T) {
	cat := mustRSTU(t, false)
	def, err := Define(cat, "v1", fixture.V1Expr(false), fixture.V1Output(cat))
	if err != nil {
		t.Fatal(err)
	}
	if got := def.Tables(); len(got) != 4 || got[0] != "R" {
		t.Errorf("Tables = %v", got)
	}
	if def.NormalForm() == nil || len(def.NormalForm().Terms) != 7 {
		t.Error("NormalForm accessor")
	}
	if len(def.FullSchema()) != 10 {
		t.Errorf("FullSchema width = %d", len(def.FullSchema()))
	}
	m, err := NewMaintainer(def, Options{DisableOrphanIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Materialized().Options().DisableOrphanIndex != true {
		t.Error("Options accessor")
	}
	if m.Materialized().Definition() != def {
		t.Error("Definition accessor")
	}
	if m.Aggregated() != nil {
		t.Error("non-aggregate view must have nil Aggregated")
	}
}
