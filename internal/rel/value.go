// Package rel provides the relational substrate used by the outer-join view
// maintenance engine: typed values with SQL NULL semantics, schemas, rows,
// base tables with unique keys and secondary indexes, and a catalog with
// foreign-key constraints.
//
// The substrate implements exactly the storage model the paper assumes:
// every base table has a unique, non-null key; foreign keys are declared,
// enforced, and visible to the maintenance planner.
package rel

import (
	"fmt"
	"math"
	"strconv"
	"time"
	"unsafe"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// Supported value kinds. KindNull is the kind of the SQL NULL marker.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL value. The zero Value is NULL.
//
// Dates are stored as days since 1970-01-01 in the integer payload so that
// date comparison is integer comparison.
//
// A Value is 24 bytes: one payload word (the integer, boolean or date; the
// float's IEEE bits; the string's length), one data pointer (the string's
// bytes, nil for every other kind) and the kind. Two equal strings may sit
// at different addresses, so == on a Value would not be value equality; the
// leading zero-size field makes the struct non-comparable, which turns ==
// and map-keying on a Value into compile errors. Use Equal, or key on the
// encoding (EncodeValues).
type Value struct {
	_    [0]func()
	w    uint64
	p    unsafe.Pointer
	kind Kind
}

// Null is the SQL NULL marker.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, w: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, w: math.Float64bits(v)} }

// String returns a string value.
func Str(v string) Value {
	return Value{kind: KindString, w: uint64(len(v)), p: unsafe.Pointer(unsafe.StringData(v))}
}

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i uint64
	if v {
		i = 1
	}
	return Value{kind: KindBool, w: i}
}

// Date returns a date value for the given day offset from 1970-01-01.
func Date(daysSinceEpoch int64) Value { return Value{kind: KindDate, w: uint64(daysSinceEpoch)} }

// The payload accessors below read the word as the kind the caller has
// already established; they do not check it.
func (v Value) int() int64     { return int64(v.w) }
func (v Value) float() float64 { return math.Float64frombits(v.w) }
func (v Value) str() string    { return unsafe.String((*byte)(v.p), int(v.w)) }

// ParseDate parses a YYYY-MM-DD string into a date value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("rel: parse date %q: %w", s, err)
	}
	return Date(t.Unix() / 86400), nil
}

// MustDate is ParseDate that panics on malformed input; intended for
// literals in tests and fixtures.
func MustDate(s string) Value {
	v, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Kind reports the value's kind. NULL values report KindNull.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It panics unless the value is an
// integer, boolean or date.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt, KindBool, KindDate:
		return v.int()
	default:
		panic(fmt.Sprintf("rel: AsInt on %s value", v.kind))
	}
}

// AsFloat returns the value as float64, coercing integers.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.float()
	case KindInt:
		return float64(v.int())
	default:
		panic(fmt.Sprintf("rel: AsFloat on %s value", v.kind))
	}
}

// AsString returns the string payload. It panics unless the value is a
// string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("rel: AsString on %s value", v.kind))
	}
	return v.str()
}

// AsBool returns the boolean payload. It panics unless the value is a
// boolean.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("rel: AsBool on %s value", v.kind))
	}
	return v.w != 0
}

// String renders the value for diagnostics and tools.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.str()
	case KindBool:
		if v.w != 0 {
			return "true"
		}
		return "false"
	case KindDate:
		return time.Unix(v.int()*86400, 0).UTC().Format("2006-01-02")
	default:
		return fmt.Sprintf("Value(kind=%d)", v.kind)
	}
}

// numericKind reports whether the kind participates in numeric coercion.
func numericKind(k Kind) bool { return k == KindInt || k == KindFloat }

// Compare compares two non-null values. It returns (-1|0|+1, true) when the
// values are comparable and (0, false) when either value is NULL or the
// kinds are incompatible. Integers and floats compare numerically.
func Compare(a, b Value) (int, bool) {
	if a.kind == KindNull || b.kind == KindNull {
		return 0, false
	}
	if a.kind != b.kind {
		if numericKind(a.kind) && numericKind(b.kind) {
			return cmpFloat(a.AsFloat(), b.AsFloat()), true
		}
		return 0, false
	}
	switch a.kind {
	case KindInt, KindBool, KindDate:
		return cmpInt(a.int(), b.int()), true
	case KindFloat:
		return cmpFloat(a.float(), b.float()), true
	case KindString:
		as, bs := a.str(), b.str()
		switch {
		case as < bs:
			return -1, true
		case as > bs:
			return 1, true
		default:
			return 0, true
		}
	default:
		return 0, false
	}
}

// Equal reports whether two values are identical, treating NULL as equal to
// NULL. This is tuple identity (used by duplicate elimination and keys), not
// SQL predicate equality.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		if numericKind(v.kind) && numericKind(o.kind) {
			return v.AsFloat() == o.AsFloat()
		}
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindInt, KindBool, KindDate:
		return v.w == o.w
	case KindFloat:
		return v.float() == o.float()
	case KindString:
		return v.str() == o.str()
	default:
		return false
	}
}

// identical reports whether two values have the same kind and the same
// payload, bit for bit — what == meant before a Value carried a pointer.
// Stricter than Equal (Int(2) and Float(2) differ) and than equal encodings.
func (v Value) identical(o Value) bool {
	return v.kind == o.kind && v.w == o.w && (v.kind != KindString || v.str() == o.str())
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Add returns the numeric sum of two values; NULL if either is NULL.
// Integer+integer stays integer, otherwise the result is a float.
func Add(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.kind == KindInt && b.kind == KindInt {
		return Int(a.int() + b.int())
	}
	return Float(a.AsFloat() + b.AsFloat())
}

// Sub returns a-b with the same coercion rules as Add.
func Sub(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.kind == KindInt && b.kind == KindInt {
		return Int(a.int() - b.int())
	}
	return Float(a.AsFloat() - b.AsFloat())
}
