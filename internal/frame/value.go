// Package frame implements a typed, null-aware, columnar dataframe.
//
// It is the relational substrate for the nde library: every dataset that
// flows through an ML pipeline — source tables, joined side data, encoded
// training matrices — is represented as a Frame of named, homogeneously
// typed Series. Operations that reshape rows (filter, join, concat, take)
// report the input-row indices that produced each output row so that
// higher layers can maintain fine-grained provenance.
package frame

import (
	"fmt"
	"strconv"
)

// Kind enumerates the element types a Series can hold.
type Kind int

const (
	// KindInt is a 64-bit signed integer column.
	KindInt Kind = iota
	// KindFloat is a 64-bit floating point column.
	KindFloat
	// KindString is a string column.
	KindString
	// KindBool is a boolean column.
	KindBool
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is a dynamically typed cell value. The zero Value is null.
type Value struct {
	kind  Kind
	valid bool
	i     int64
	f     float64
	s     string
	b     bool
}

// Null returns an untyped null value.
func Null() Value { return Value{} }

// NullOf returns a null value carrying type information.
func NullOf(k Kind) Value { return Value{kind: k} }

// Int wraps an int64 into a Value.
func Int(v int64) Value { return Value{kind: KindInt, valid: true, i: v} }

// Float wraps a float64 into a Value.
func Float(v float64) Value { return Value{kind: KindFloat, valid: true, f: v} }

// Str wraps a string into a Value.
func Str(v string) Value { return Value{kind: KindString, valid: true, s: v} }

// Bool wraps a bool into a Value.
func Bool(v bool) Value { return Value{kind: KindBool, valid: true, b: v} }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return !v.valid }

// Kind returns the type of the value. Null values report the kind of the
// column they came from, or KindInt for the untyped Null().
func (v Value) Kind() Kind { return v.kind }

// Int returns the integer payload. It panics if the value is not a non-null int.
func (v Value) Int() int64 {
	if !v.valid || v.kind != KindInt {
		panic(fmt.Sprintf("frame: Int() on %s value", v.describe()))
	}
	return v.i
}

// Float returns the float payload, widening ints. It panics on other kinds or null.
func (v Value) Float() float64 {
	if !v.valid {
		panic("frame: Float() on null value")
	}
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("frame: Float() on %s value", v.describe()))
	}
}

// Str returns the string payload. It panics if the value is not a non-null string.
func (v Value) Str() string {
	if !v.valid || v.kind != KindString {
		panic(fmt.Sprintf("frame: Str() on %s value", v.describe()))
	}
	return v.s
}

// Equal reports whether two values have the same kind, nullness and payload.
// Two nulls of any kind compare equal.
func (v Value) Equal(o Value) bool {
	if !v.valid && !o.valid {
		return true
	}
	if v.valid != o.valid || v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindInt:
		return v.i == o.i
	case KindFloat:
		return v.f == o.f
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.b == o.b
	}
	return false
}

// String formats the value for display. Nulls render as "null".
func (v Value) String() string {
	if !v.valid {
		return "null"
	}
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		return strconv.FormatBool(v.b)
	}
	return "?"
}

func (v Value) describe() string {
	if !v.valid {
		return "null"
	}
	return v.kind.String()
}

// key returns a comparable representation used for hashing in joins.
// Nulls of every kind map to the same key.
func (v Value) key() valueKey {
	if !v.valid {
		return valueKey{null: true}
	}
	switch v.kind {
	case KindInt:
		return valueKey{kind: KindInt, i: v.i}
	case KindFloat:
		return valueKey{kind: KindFloat, f: v.f}
	case KindString:
		return valueKey{kind: KindString, s: v.s}
	case KindBool:
		b := int64(0)
		if v.b {
			b = 1
		}
		return valueKey{kind: KindBool, i: b}
	}
	return valueKey{null: true}
}

type valueKey struct {
	null bool
	kind Kind
	i    int64
	f    float64
	s    string
}
