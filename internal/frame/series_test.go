package frame

import (
	"math"
	"testing"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Int(42), KindInt, "42"},
		{Float(2.5), KindFloat, "2.5"},
		{Str("hi"), KindString, "hi"},
		{Bool(true), KindBool, "true"},
	}
	for _, c := range cases {
		if c.v.IsNull() {
			t.Errorf("%v unexpectedly null", c.v)
		}
		if c.v.Kind() != c.kind {
			t.Errorf("kind of %v = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("String of %v = %q, want %q", c.v, c.v.String(), c.str)
		}
	}
	if !Null().IsNull() {
		t.Error("Null() not null")
	}
	if Null().String() != "null" {
		t.Errorf("Null().String() = %q", Null().String())
	}
}

func TestValueFloatWidensInt(t *testing.T) {
	if got := Int(7).Float(); got != 7.0 {
		t.Errorf("Int(7).Float() = %v", got)
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Float(1), false},
		{Null(), Null(), true},
		{NullOf(KindFloat), NullOf(KindString), true},
		{Null(), Int(0), false},
		{Str("a"), Str("a"), true},
		{Bool(true), Bool(false), false},
		{Float(math.Inf(1)), Float(math.Inf(1)), true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValuePanicsOnKindMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Str() on int value")
		}
	}()
	_ = Int(1).Str()
}

func TestSeriesBasics(t *testing.T) {
	s := NewFloatSeries("x", []float64{1, 2, 3}, []bool{true, false, true})
	if s.Name() != "x" || s.Kind() != KindFloat || s.Len() != 3 {
		t.Fatalf("bad series header: %s %s %d", s.Name(), s.Kind(), s.Len())
	}
	if !s.IsNull(1) || s.IsNull(0) {
		t.Error("null mask wrong")
	}
	if s.NullCount() != 1 {
		t.Errorf("NullCount = %d", s.NullCount())
	}
	if s.Float(2) != 3 {
		t.Errorf("Float(2) = %v", s.Float(2))
	}
}

func TestSeriesCloneIsDeep(t *testing.T) {
	s := NewIntSeries("a", []int64{1, 2}, nil)
	c := s.Clone()
	if err := c.Set(0, Int(99)); err != nil {
		t.Fatal(err)
	}
	if s.Int(0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestSeriesTake(t *testing.T) {
	s := NewStringSeries("s", []string{"a", "b", "c"}, []bool{true, true, false})
	got := s.Take([]int{2, 0, 0})
	if got.Len() != 3 || !got.IsNull(0) || got.Str(1) != "a" || got.Str(2) != "a" {
		t.Errorf("Take wrong: %v %v %v", got.IsNull(0), got.Value(1), got.Value(2))
	}
}

func TestSeriesSetKindMismatch(t *testing.T) {
	s := NewIntSeries("a", []int64{1}, nil)
	if err := s.Set(0, Str("x")); err == nil {
		t.Error("expected error storing string in int column")
	}
	f := NewFloatSeries("f", []float64{0}, nil)
	if err := f.Set(0, Int(3)); err != nil {
		t.Errorf("int should widen into float column: %v", err)
	}
	if f.Float(0) != 3 {
		t.Errorf("widened value = %v", f.Float(0))
	}
}

func TestSeriesAppend(t *testing.T) {
	s := NewBoolSeries("b", []bool{true, false}, []bool{true, false})
	o := NewBoolSeries("b2", []bool{true, false}, nil)
	if err := s.AppendSeries(o); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 || !s.IsNull(1) || !s.Value(2).Equal(Bool(true)) || !s.Value(3).Equal(Bool(false)) {
		t.Errorf("AppendSeries wrong: len=%d", s.Len())
	}
	i := NewIntSeries("i", []int64{1}, nil)
	if err := s.AppendSeries(i); err == nil {
		t.Error("expected kind mismatch error")
	}
}

func TestSeriesStats(t *testing.T) {
	s := NewFloatSeries("x", []float64{2, 4, 100}, []bool{true, true, false})
	if m, ok := s.Mean(); !ok || m != 3 {
		t.Errorf("Mean = %v,%v", m, ok)
	}
	if sd, ok := s.Std(); !ok || sd != 1 {
		t.Errorf("Std = %v,%v", sd, ok)
	}
	empty := NewFloatSeries("e", []float64{1}, []bool{false})
	if _, ok := empty.Mean(); ok {
		t.Error("Mean of all-null column should report !ok")
	}
	str := NewStringSeries("s", []string{"a"}, nil)
	if _, ok := str.Mean(); ok {
		t.Error("Mean of string column should report !ok")
	}
}

func TestSeriesFloats(t *testing.T) {
	s := NewIntSeries("i", []int64{5, 6}, []bool{true, false})
	fs, err := s.Floats()
	if err != nil {
		t.Fatal(err)
	}
	if fs[0] != 5 || !math.IsNaN(fs[1]) {
		t.Errorf("Floats = %v", fs)
	}
	if _, err := NewStringSeries("s", []string{"x"}, nil).Floats(); err == nil {
		t.Error("expected error for string Floats()")
	}
}

func TestSeriesMode(t *testing.T) {
	s := NewStringSeries("s", []string{"b", "a", "b", "c"}, nil)
	m, ok := s.Mode()
	if !ok || m.Str() != "b" {
		t.Errorf("Mode = %v,%v", m, ok)
	}
	if _, ok := NewStringSeries("e", nil, nil).Mode(); ok {
		t.Error("Mode of empty should be !ok")
	}
}

func TestSeriesUniqueAndValueCounts(t *testing.T) {
	s := NewIntSeries("i", []int64{3, 1, 3, 2, 1, 3}, []bool{true, true, true, true, true, false})
	u := s.Unique()
	if len(u) != 3 || u[0].Int() != 3 || u[1].Int() != 1 || u[2].Int() != 2 {
		t.Errorf("Unique = %v", u)
	}
}

func TestNewSeriesOfErrors(t *testing.T) {
	if _, err := NewSeriesOf("x", KindInt, []Value{Int(1), Str("no")}); err == nil {
		t.Error("expected kind mismatch error")
	}
	s, err := NewSeriesOf("x", KindFloat, []Value{Int(1), Null(), Float(2.5)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Float(0) != 1 || !s.IsNull(1) || s.Float(2) != 2.5 {
		t.Error("NewSeriesOf values wrong")
	}
}
