package rel

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
	"unsafe"
)

// TestValueSize pins the one-word layout: payload, data pointer, kind.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 24 {
		t.Fatalf("a Value is %d bytes, want at most 24", got)
	}
}

// valueCase is one value of the every-kind table: how it was built, what
// its accessors must say, and what it must decode to.
type valueCase struct {
	name string
	v    Value
	kind Kind
	// check inspects the payload through the kind's accessor.
	check func(Value) bool
	// decoded is the kind DecodeValues gives back: the value's own, except
	// for integral floats, which encode as integers.
	decoded Kind
}

var big = strings.Repeat("0123456789", 7_000) // 70 kB

func valueCases() []valueCase {
	isInt := func(want int64) func(Value) bool {
		return func(v Value) bool { return v.AsInt() == want }
	}
	isFloat := func(want float64) func(Value) bool {
		return func(v Value) bool { return math.Float64bits(v.AsFloat()) == math.Float64bits(want) }
	}
	isStr := func(want string) func(Value) bool {
		return func(v Value) bool { return v.AsString() == want && len(v.AsString()) == len(want) }
	}
	return []valueCase{
		{"null", Null, KindNull, Value.IsNull, KindNull},
		{"zero value", Value{}, KindNull, Value.IsNull, KindNull},
		{"int zero", Int(0), KindInt, isInt(0), KindInt},
		{"int min", Int(math.MinInt64), KindInt, isInt(math.MinInt64), KindInt},
		{"int max", Int(math.MaxInt64), KindInt, isInt(math.MaxInt64), KindInt},
		{"float", Float(1.5), KindFloat, isFloat(1.5), KindFloat},
		{"float nan", Float(math.NaN()), KindFloat, func(v Value) bool { return math.IsNaN(v.AsFloat()) }, KindFloat},
		{"float inf", Float(math.Inf(-1)), KindFloat, isFloat(math.Inf(-1)), KindFloat},
		{"float negative zero", Float(math.Copysign(0, -1)), KindFloat, isFloat(math.Copysign(0, -1)), KindInt},
		{"float integral", Float(2), KindFloat, isFloat(2), KindInt},
		{"float integral negative", Float(-3e15), KindFloat, isFloat(-3e15), KindInt},
		{"float beyond int64", Float(1e19), KindFloat, isFloat(1e19), KindFloat},
		{"string empty", Str(""), KindString, isStr(""), KindString},
		{"string", Str("abc"), KindString, isStr("abc"), KindString},
		{"string nul", Str("a\x00b"), KindString, isStr("a\x00b"), KindString},
		{"string 70 kB", Str(big), KindString, isStr(big), KindString},
		{"bool true", Bool(true), KindBool, Value.AsBool, KindBool},
		{"bool false", Bool(false), KindBool, func(v Value) bool { return !v.AsBool() }, KindBool},
		{"date", MustDate("1994-06-01"), KindDate, isInt(8917), KindDate},
		{"date negative", Date(-1), KindDate, isInt(-1), KindDate},
	}
}

// TestValueEveryKind drives every kind through construct → accessor →
// AppendEncoded → DecodeValues → Equal, alone and inside one sequence.
func TestValueEveryKind(t *testing.T) {
	cases := valueCases()
	var all []Value
	for _, c := range cases {
		all = append(all, c.v)
		if c.v.Kind() != c.kind {
			t.Errorf("%s: kind %s, want %s", c.name, c.v.Kind(), c.kind)
		}
		if !c.check(c.v) {
			t.Errorf("%s: accessor does not return the constructed payload (%s)", c.name, c.v)
		}
		enc := AppendEncoded(nil, c.v)
		dec, err := DecodeValues(string(enc))
		if err != nil || len(dec) != 1 {
			t.Errorf("%s: decode: %v, %d values", c.name, err, len(dec))
			continue
		}
		if dec[0].Kind() != c.decoded {
			t.Errorf("%s: decoded as %s, want %s", c.name, dec[0].Kind(), c.decoded)
		}
		isNaN := c.kind == KindFloat && math.IsNaN(c.v.AsFloat())
		if !isNaN && (!dec[0].Equal(c.v) || !c.v.Equal(dec[0])) {
			t.Errorf("%s: decoded %s is not Equal to the original", c.name, dec[0])
		}
		if isNaN && !math.IsNaN(dec[0].AsFloat()) {
			t.Errorf("%s: decoded %s", c.name, dec[0])
		}
		if !c.v.identical(c.v) {
			t.Errorf("%s: not identical to itself", c.name)
		}
		if re := AppendEncoded(nil, dec[0]); !bytes.Equal(re, enc) {
			t.Errorf("%s: re-encoding the decoded value is not canonical", c.name)
		}
	}
	dec, err := DecodeValues(EncodeValues(all...))
	if err != nil || len(dec) != len(all) {
		t.Fatalf("sequence of every case: %v, %d of %d values", err, len(dec), len(all))
	}
	for i, c := range cases {
		if dec[i].Kind() != c.decoded {
			t.Errorf("%s in sequence: decoded as %s, want %s", c.name, dec[i].Kind(), c.decoded)
		}
	}
	// Equal strings at different addresses are Equal and identical.
	a, b := Str(strings.Repeat("ab", 3)), Str("ab"+"ab"+string([]byte("ab")))
	if !a.Equal(b) || !a.identical(b) {
		t.Error("equal strings at different addresses compare unequal")
	}
	if Int(2).identical(Float(2)) || !Int(2).Equal(Float(2)) {
		t.Error("identical must be stricter than Equal on Int(2) and Float(2)")
	}
}

// everyKindCatalog is a catalog with every kind in one row (gob writes rows in
// map order, so one row keeps Save's output deterministic), short enough to
// commit.
func everyKindCatalog(t *testing.T, long string) *Catalog {
	t.Helper()
	c := NewCatalog()
	if _, err := c.CreateTable("k", []Column{
		{Name: "id", Kind: KindInt},
		{Name: "imin", Kind: KindInt},
		{Name: "f", Kind: KindFloat},
		{Name: "fnan", Kind: KindFloat},
		{Name: "fnegzero", Kind: KindFloat},
		{Name: "fint", Kind: KindFloat},
		{Name: "s", Kind: KindString},
		{Name: "sempty", Kind: KindString},
		{Name: "slong", Kind: KindString},
		{Name: "btrue", Kind: KindBool},
		{Name: "bfalse", Kind: KindBool},
		{Name: "d", Kind: KindDate},
		{Name: "n", Kind: KindString},
	}, "id"); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("k", []Row{{
		Int(7), Int(math.MinInt64),
		Float(1.5), Float(math.NaN()), Float(math.Copysign(0, -1)), Float(2),
		Str("abc"), Str(""), Str(long),
		Bool(true), Bool(false), MustDate("1994-06-01"), Null,
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("k", "k_s", "s"); err != nil {
		t.Fatal(err)
	}
	return c
}

// sameRows requires two single-row tables to hold bit-identical values —
// but for the sign of a float zero, which gob has always dropped (it omits
// a field that compares equal to zero).
func sameRows(t *testing.T, got, want *Catalog) {
	t.Helper()
	g, w := got.Table("k").Rows(), want.Table("k").Rows()
	if len(g) != 1 || len(w) != 1 {
		t.Fatalf("%d and %d rows, want 1 and 1", len(g), len(w))
	}
	for i := range w[0] {
		negZero := w[0][i].Kind() == KindFloat && w[0][i].AsFloat() == 0 && g[0][i].identical(Float(0))
		if !g[0][i].identical(w[0][i]) && !negZero {
			t.Errorf("column %s: loaded %s (%s), saved %s (%s)", want.Table("k").Schema()[i].Name,
				g[0][i], g[0][i].Kind(), w[0][i], w[0][i].Kind())
		}
	}
}

// TestSaveLoadEveryKind round-trips every kind, the 70 kB string included,
// through Save and LoadCatalog.
func TestSaveLoadEveryKind(t *testing.T) {
	c := everyKindCatalog(t, big)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCatalog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, loaded, c)
	if loaded.Table("k").IndexOnSet([]int{6}) == nil {
		t.Error("declared index lost in the round trip")
	}
}

// TestLoadParentCommitSnapshot loads testdata/catalog_v40.gob, which the
// commit before the 24-byte Value (its Value had one field per payload)
// wrote with Save from everyKindCatalog(t, "long"×75): the wire format did not
// move, in either direction.
func TestLoadParentCommitSnapshot(t *testing.T) {
	old, err := os.ReadFile("testdata/catalog_v40.gob")
	if err != nil {
		t.Fatal(err)
	}
	want := everyKindCatalog(t, strings.Repeat("long", 75))
	loaded, err := LoadCatalog(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, loaded, want)
	var now bytes.Buffer
	if err := want.Save(&now); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(now.Bytes(), old) {
		t.Errorf("Save writes %d bytes that differ from the %d the parent commit wrote for the same catalog", now.Len(), len(old))
	}
}
