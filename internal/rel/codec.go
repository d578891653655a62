package rel

import (
	"encoding/binary"
	"fmt"
	"math"
)

// EncodeValues encodes a sequence of values into a compact string suitable
// for use as a Go map key. The encoding is injective: distinct value
// sequences produce distinct strings (each value is tagged with its kind and
// strings are length-prefixed). NULLs encode as a bare kind tag, so keys
// containing NULLs are well defined; key uniqueness over nullable view keys
// is exactly what the paper's clustered view index provides.
func EncodeValues(vals ...Value) string {
	return string(AppendEncoded(make([]byte, 0, 16*len(vals)), vals...))
}

// EncodeRowCols encodes the values of row at the given column positions.
func EncodeRowCols(row Row, cols []int) string {
	buf := make([]byte, 0, 16*len(cols))
	for _, c := range cols {
		buf = appendValue(buf, row[c])
	}
	return string(buf)
}

// AppendRowCols appends the encoding of row's values at the given column
// positions to buf and returns the extended buffer. It is the
// allocation-free form of EncodeRowCols for callers that reuse a scratch
// buffer across rows (hash-join probes, hashing).
func AppendRowCols(buf []byte, row Row, cols []int) []byte {
	for _, c := range cols {
		buf = appendValue(buf, row[c])
	}
	return buf
}

// encodesTo reports whether key is the encoding of row's values at cols, as
// AppendRowCols writes it, without writing one.
func encodesTo(key []byte, row Row, cols []int) bool {
	var scratch [9]byte
	for _, c := range cols {
		v := row[c]
		if v.kind == KindString {
			s := v.str()
			n := 5 + len(s)
			if len(key) < n || key[0] != byte(KindString) || binary.BigEndian.Uint32(key[1:5]) != uint32(len(s)) || string(key[5:n]) != s {
				return false
			}
			key = key[n:]
			continue
		}
		e := appendValue(scratch[:0], v)
		if len(key) < len(e) || string(key[:len(e)]) != string(e) {
			return false
		}
		key = key[len(e):]
	}
	return len(key) == 0
}

// fnv64Offset and fnv64Prime are the FNV-1a 64-bit parameters.
const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

// Hash64 returns the 64-bit FNV-1a hash of b.
func Hash64(b []byte) uint64 {
	h := fnv64Offset
	for _, c := range b {
		h ^= uint64(c)
		h *= fnv64Prime
	}
	return h
}

// HashRowCols hashes the injective encoding of row's values at the given
// column positions into a uint64, using (and returning) buf as scratch so
// repeated calls allocate nothing once the buffer has grown. Two rows hash
// equal whenever EncodeRowCols would return equal strings, so the hash is a
// sound prehash for equijoin keys; collisions must be resolved by the
// caller (hash joins re-verify candidates through the join predicate).
func HashRowCols(row Row, cols []int, buf []byte) (uint64, []byte) {
	buf = AppendRowCols(buf[:0], row, cols)
	return Hash64(buf), buf
}

// AppendEncoded appends the encoding of vals to buf and returns it.
func AppendEncoded(buf []byte, vals ...Value) []byte {
	for _, v := range vals {
		buf = appendValue(buf, v)
	}
	return buf
}

// DecodeValues decodes a key produced by EncodeValues (or AppendEncoded)
// back into values. Integral floats fold into KindInt during encoding — in
// line with Value.Equal — so the round trip is exact up to Equal, not up to
// Kind. A failed decode means the input was not produced by the encoder.
func DecodeValues(s string) ([]Value, error) {
	var out []Value
	b := []byte(s)
	for len(b) > 0 {
		k := Kind(b[0])
		b = b[1:]
		switch k {
		case KindNull:
			out = append(out, Null)
		case KindInt, KindBool, KindDate:
			if len(b) < 8 {
				return nil, fmt.Errorf("rel: truncated %s value in encoded key", k)
			}
			out = append(out, Value{kind: k, w: binary.BigEndian.Uint64(b[:8])})
			b = b[8:]
		case KindFloat:
			if len(b) < 8 {
				return nil, fmt.Errorf("rel: truncated float value in encoded key")
			}
			out = append(out, Float(math.Float64frombits(binary.BigEndian.Uint64(b[:8]))))
			b = b[8:]
		case KindString:
			if len(b) < 4 {
				return nil, fmt.Errorf("rel: truncated string length in encoded key")
			}
			n := binary.BigEndian.Uint32(b[:4])
			b = b[4:]
			if uint64(len(b)) < uint64(n) {
				return nil, fmt.Errorf("rel: truncated string value in encoded key")
			}
			out = append(out, Str(string(b[:n])))
			b = b[n:]
		default:
			return nil, fmt.Errorf("rel: invalid kind tag %d in encoded key", k)
		}
	}
	return out, nil
}

func appendValue(buf []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(buf, byte(KindNull))
	case KindInt:
		buf = append(buf, byte(KindInt))
		return binary.BigEndian.AppendUint64(buf, v.w)
	case KindFloat:
		// Integral floats encode as integers so that Int(2) and Float(2)
		// produce the same key, in line with Value.Equal.
		if f := v.float(); f == math.Trunc(f) && f >= -9.2e18 && f <= 9.2e18 {
			buf = append(buf, byte(KindInt))
			return binary.BigEndian.AppendUint64(buf, uint64(int64(f)))
		}
		buf = append(buf, byte(KindFloat))
		return binary.BigEndian.AppendUint64(buf, v.w)
	case KindBool, KindDate:
		buf = append(buf, byte(v.kind))
		return binary.BigEndian.AppendUint64(buf, v.w)
	case KindString:
		buf = append(buf, byte(KindString))
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.w))
		return append(buf, v.str()...)
	default:
		panic("rel: cannot encode value kind")
	}
}
