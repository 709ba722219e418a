package frame

import (
	"fmt"
	"math"
	"sort"
)

// Series is a named, homogeneously typed column with a null mask.
// The zero Series is not usable; construct one with the New*Series helpers.
type Series struct {
	name  string
	kind  Kind
	ints  []int64
	flts  []float64
	strs  []string
	bools []bool
	valid []bool
}

// NewIntSeries builds an int column. A nil valid mask means all values are set.
func NewIntSeries(name string, vals []int64, valid []bool) *Series {
	return &Series{name: name, kind: KindInt, ints: append([]int64(nil), vals...), valid: normMask(valid, len(vals))}
}

// NewFloatSeries builds a float column. A nil valid mask means all values are set.
func NewFloatSeries(name string, vals []float64, valid []bool) *Series {
	return &Series{name: name, kind: KindFloat, flts: append([]float64(nil), vals...), valid: normMask(valid, len(vals))}
}

// NewStringSeries builds a string column. A nil valid mask means all values are set.
func NewStringSeries(name string, vals []string, valid []bool) *Series {
	return &Series{name: name, kind: KindString, strs: append([]string(nil), vals...), valid: normMask(valid, len(vals))}
}

// NewBoolSeries builds a bool column. A nil valid mask means all values are set.
func NewBoolSeries(name string, vals []bool, valid []bool) *Series {
	return &Series{name: name, kind: KindBool, bools: append([]bool(nil), vals...), valid: normMask(valid, len(vals))}
}

// NewSeriesOf builds a series of the given kind from dynamically typed values.
// Every non-null value must match the kind (ints widen to float columns).
func NewSeriesOf(name string, kind Kind, vals []Value) (*Series, error) {
	s := emptySeries(name, kind, len(vals))
	for i, v := range vals {
		if err := s.set(i, v); err != nil {
			return nil, fmt.Errorf("frame: column %q row %d: %w", name, i, err)
		}
	}
	return s, nil
}

func emptySeries(name string, kind Kind, n int) *Series {
	s := &Series{name: name, kind: kind, valid: make([]bool, n)}
	switch kind {
	case KindInt:
		s.ints = make([]int64, n)
	case KindFloat:
		s.flts = make([]float64, n)
	case KindString:
		s.strs = make([]string, n)
	case KindBool:
		s.bools = make([]bool, n)
	}
	return s
}

func normMask(valid []bool, n int) []bool {
	if valid == nil {
		m := make([]bool, n)
		for i := range m {
			m[i] = true
		}
		return m
	}
	if len(valid) != n {
		panic(fmt.Sprintf("frame: valid mask length %d != data length %d", len(valid), n))
	}
	return append([]bool(nil), valid...)
}

// Name returns the column name.
func (s *Series) Name() string { return s.name }

// Kind returns the element type of the column.
func (s *Series) Kind() Kind { return s.kind }

// Len returns the number of rows.
func (s *Series) Len() int { return len(s.valid) }

// IsNull reports whether row i holds a null.
func (s *Series) IsNull(i int) bool { return !s.valid[i] }

// NullCount returns the number of null rows.
func (s *Series) NullCount() int {
	n := 0
	for _, v := range s.valid {
		if !v {
			n++
		}
	}
	return n
}

// Value returns the dynamically typed value at row i.
func (s *Series) Value(i int) Value {
	if !s.valid[i] {
		return NullOf(s.kind)
	}
	switch s.kind {
	case KindInt:
		return Int(s.ints[i])
	case KindFloat:
		return Float(s.flts[i])
	case KindString:
		return Str(s.strs[i])
	case KindBool:
		return Bool(s.bools[i])
	}
	return Null()
}

// Int returns the int at row i; it panics on nulls or non-int columns.
func (s *Series) Int(i int) int64 { return s.Value(i).Int() }

// Float returns the float at row i, widening ints; it panics on nulls.
func (s *Series) Float(i int) float64 { return s.Value(i).Float() }

// Str returns the string at row i; it panics on nulls or non-string columns.
func (s *Series) Str(i int) string { return s.Value(i).Str() }

func (s *Series) set(i int, v Value) error {
	if v.IsNull() {
		s.valid[i] = false
		return nil
	}
	switch {
	case s.kind == KindInt && v.kind == KindInt:
		s.ints[i] = v.i
	case s.kind == KindFloat && v.kind == KindFloat:
		s.flts[i] = v.f
	case s.kind == KindFloat && v.kind == KindInt:
		s.flts[i] = float64(v.i)
	case s.kind == KindString && v.kind == KindString:
		s.strs[i] = v.s
	case s.kind == KindBool && v.kind == KindBool:
		s.bools[i] = v.b
	default:
		return fmt.Errorf("cannot store %s value in %s column", v.kind, s.kind)
	}
	s.valid[i] = true
	return nil
}

// Set stores v at row i, converting ints into float columns. It returns an
// error on a kind mismatch.
func (s *Series) Set(i int, v Value) error { return s.set(i, v) }

// SetNull marks row i as null.
func (s *Series) SetNull(i int) { s.valid[i] = false }

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	c := &Series{name: s.name, kind: s.kind, valid: append([]bool(nil), s.valid...)}
	c.ints = append([]int64(nil), s.ints...)
	c.flts = append([]float64(nil), s.flts...)
	c.strs = append([]string(nil), s.strs...)
	c.bools = append([]bool(nil), s.bools...)
	return c
}

// Take returns a new series with the rows at the given indices, in order.
// Indices may repeat.
func (s *Series) Take(idx []int) *Series {
	out := emptySeries(s.name, s.kind, len(idx))
	for o, i := range idx {
		out.valid[o] = s.valid[i]
		switch s.kind {
		case KindInt:
			out.ints[o] = s.ints[i]
		case KindFloat:
			out.flts[o] = s.flts[i]
		case KindString:
			out.strs[o] = s.strs[i]
		case KindBool:
			out.bools[o] = s.bools[i]
		}
	}
	return out
}

// AppendSeries concatenates another series of the same kind onto s.
func (s *Series) AppendSeries(o *Series) error {
	if s.kind != o.kind {
		return fmt.Errorf("frame: cannot append %s series to %s series", o.kind, s.kind)
	}
	s.ints = append(s.ints, o.ints...)
	s.flts = append(s.flts, o.flts...)
	s.strs = append(s.strs, o.strs...)
	s.bools = append(s.bools, o.bools...)
	s.valid = append(s.valid, o.valid...)
	return nil
}

// Equal reports deep equality of name, kind, null masks and payloads.
func (s *Series) Equal(o *Series) bool {
	if s.name != o.name || s.kind != o.kind || s.Len() != o.Len() {
		return false
	}
	for i := 0; i < s.Len(); i++ {
		if !s.Value(i).Equal(o.Value(i)) {
			return false
		}
	}
	return true
}

// Floats returns the column as float64s (ints widen), with nulls mapped to
// NaN. It returns an error for string or bool columns.
func (s *Series) Floats() ([]float64, error) {
	if s.kind != KindInt && s.kind != KindFloat {
		return nil, fmt.Errorf("frame: column %q of kind %s is not numeric", s.name, s.kind)
	}
	out := make([]float64, s.Len())
	for i := range out {
		if !s.valid[i] {
			out[i] = math.NaN()
			continue
		}
		if s.kind == KindInt {
			out[i] = float64(s.ints[i])
		} else {
			out[i] = s.flts[i]
		}
	}
	return out, nil
}

// Strings returns the column as strings with nulls mapped to "". It returns
// an error for non-string columns.
func (s *Series) Strings() ([]string, error) {
	if s.kind != KindString {
		return nil, fmt.Errorf("frame: column %q of kind %s is not string", s.name, s.kind)
	}
	out := make([]string, s.Len())
	for i := range out {
		if s.valid[i] {
			out[i] = s.strs[i]
		}
	}
	return out, nil
}

// Mean returns the mean of the non-null values of a numeric column. The
// second return is false when there are no non-null values.
func (s *Series) Mean() (float64, bool) {
	sum, n := 0.0, 0
	for i := 0; i < s.Len(); i++ {
		if !s.valid[i] {
			continue
		}
		switch s.kind {
		case KindInt:
			sum += float64(s.ints[i])
		case KindFloat:
			sum += s.flts[i]
		default:
			return 0, false
		}
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Std returns the population standard deviation of the non-null values of a
// numeric column. The second return is false when there are no non-null values.
func (s *Series) Std() (float64, bool) {
	mean, ok := s.Mean()
	if !ok {
		return 0, false
	}
	sum, n := 0.0, 0
	for i := 0; i < s.Len(); i++ {
		if !s.valid[i] {
			continue
		}
		d := s.Float(i) - mean
		sum += float64(d * d)
		n++
	}
	return math.Sqrt(sum / float64(n)), true
}

// Mode returns the most frequent non-null value; ties break toward the
// smaller key ordering for determinism. The second return is false when the
// column has no non-null values.
func (s *Series) Mode() (Value, bool) {
	counts := make(map[valueKey]int)
	first := make(map[valueKey]Value)
	for i := 0; i < s.Len(); i++ {
		v := s.Value(i)
		if v.IsNull() {
			continue
		}
		k := v.key()
		counts[k]++
		if _, seen := first[k]; !seen {
			first[k] = v
		}
	}
	if len(counts) == 0 {
		return Null(), false
	}
	keys := make([]valueKey, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		if counts[ka] != counts[kb] {
			return counts[ka] > counts[kb]
		}
		return fmt.Sprint(first[ka]) < fmt.Sprint(first[kb])
	})
	return first[keys[0]], true
}

// Unique returns the distinct non-null values in first-appearance order.
func (s *Series) Unique() []Value {
	seen := make(map[valueKey]bool)
	var out []Value
	for i := 0; i < s.Len(); i++ {
		v := s.Value(i)
		if v.IsNull() {
			continue
		}
		k := v.key()
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}
