package rel

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// valuesFromSpec deterministically maps fuzz bytes to a value sequence,
// consuming a kind selector byte and an 8-byte payload per value so the
// fuzzer can reach every kind, NaN/Inf floats, NULLs and embedded NULs in
// strings. Every value is read back through its kind's accessor on the way.
func valuesFromSpec(t *testing.T, data []byte) []Value {
	var out []Value
	add := func(v Value, kind Kind, payloadOK bool) {
		if v.Kind() != kind || !payloadOK {
			t.Fatalf("constructed %s value reads back as %s (%s)", kind, v.Kind(), v)
		}
		out = append(out, v)
	}
	for len(data) > 0 {
		sel := data[0]
		data = data[1:]
		var payload uint64
		if len(data) >= 8 {
			payload = binary.BigEndian.Uint64(data[:8])
			data = data[8:]
		} else {
			for _, c := range data {
				payload = payload<<8 | uint64(c)
			}
			data = nil
		}
		switch sel % 6 {
		case 0:
			add(Null, KindNull, Null.IsNull())
		case 1:
			v := Int(int64(payload))
			add(v, KindInt, v.AsInt() == int64(payload))
		case 2:
			v := Float(math.Float64frombits(payload))
			add(v, KindFloat, math.Float64bits(v.AsFloat()) == payload)
		case 3:
			var raw [8]byte
			binary.BigEndian.PutUint64(raw[:], payload)
			// sel%9 == 0 is the empty string; a large selector repeats the
			// bytes into a string far longer than any inline buffer.
			str := string(raw[:sel%9])
			if sel >= 240 {
				str = strings.Repeat(str, 12000)
			}
			v := Str(str)
			add(v, KindString, v.AsString() == str)
		case 4:
			v := Bool(payload%2 == 0)
			add(v, KindBool, v.AsBool() == (payload%2 == 0))
		default:
			v := Date(int64(payload % 100000))
			add(v, KindDate, v.AsInt() == int64(payload%100000))
		}
	}
	return out
}

// FuzzCodecRoundTrip checks the three properties the maintenance machinery
// relies on: DecodeValues inverts EncodeValues up to Value.Equal, equal
// encodings imply Equal value sequences (injectivity — view keys and join
// keys are these strings), and HashRowCols agrees with hashing the
// injective encoding.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0}, []byte{1, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{2, 0x40, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 0, 0, 0, 0, 0, 0, 0, 2})
	f.Add([]byte{3, 'a', 'b', 0, 0, 0, 0, 0, 0}, []byte{4, 0, 0, 0, 0, 0, 0, 0, 1})
	// "", a 72 kB string, NaN, −0.0, math.MinInt64 and an integral float
	// beside the integer it folds to.
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 249, 'l', 'o', 'n', 'g', 'l', 'o', 'n', 'g'},
		[]byte{2, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 2, 0x80, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0x80, 0, 0, 0, 0, 0, 0, 0, 2, 0x40, 0, 0, 0, 0, 0, 0, 0},
		[]byte{1, 0x80, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2})
	// A value and its extension by a second: encodings one a prefix of the
	// other, which encodesTo must tell apart.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 7}, []byte{1, 0, 0, 0, 0, 0, 0, 0, 7, 1, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Fuzz(func(t *testing.T, specA, specB []byte) {
		va := valuesFromSpec(t, specA)
		vb := valuesFromSpec(t, specB)

		encA := EncodeValues(va...)
		dec, err := DecodeValues(encA)
		if err != nil {
			t.Fatalf("DecodeValues(EncodeValues(%v)): %v", va, err)
		}
		if len(dec) != len(va) {
			t.Fatalf("round trip of %v produced %d values, want %d", va, len(dec), len(va))
		}
		for i := range dec {
			nanPair := va[i].Kind() == KindFloat && math.IsNaN(va[i].AsFloat()) &&
				dec[i].Kind() == KindFloat && math.IsNaN(dec[i].AsFloat())
			if !dec[i].Equal(va[i]) && !nanPair {
				t.Fatalf("value %d decoded as %v, want %v", i, dec[i], va[i])
			}
		}
		if re := EncodeValues(dec...); re != encA {
			t.Fatalf("re-encoding %v is not canonical: %q vs %q", dec, re, encA)
		}
		encB := EncodeValues(vb...)

		if encA == encB {
			if len(va) != len(vb) {
				t.Fatalf("injectivity: %v and %v encode equally but differ in length", va, vb)
			}
			for i := range va {
				nanPair := va[i].Kind() == KindFloat && math.IsNaN(va[i].AsFloat()) &&
					vb[i].Kind() == KindFloat && math.IsNaN(vb[i].AsFloat())
				if !va[i].Equal(vb[i]) && !nanPair {
					t.Fatalf("injectivity: %v and %v encode equally but differ at %d", va, vb, i)
				}
			}
		}

		row := Row(va)
		cols := make([]int, len(row))
		for i := range cols {
			cols[i] = i
		}
		h, buf := HashRowCols(row, cols, nil)
		if want := Hash64([]byte(EncodeRowCols(row, cols))); h != want {
			t.Fatalf("HashRowCols = %d, want Hash64 of the injective encoding %d", h, want)
		}
		if !bytes.Equal(buf, []byte(encA)) {
			t.Fatalf("HashRowCols scratch %q differs from the encoding %q", buf, encA)
		}
		// encodesTo, which a table index matches its buckets with, agrees
		// with comparing encodings.
		if !encodesTo([]byte(encA), row, cols) || encodesTo([]byte(encB), row, cols) != (encA == encB) {
			t.Fatalf("encodesTo of %v disagrees with its encoding %q or with %q", va, encA, encB)
		}
	})
}
