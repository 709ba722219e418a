package frame

import (
	"strings"
	"testing"
)

func sampleFrame(t *testing.T) *Frame {
	t.Helper()
	f, err := New(
		NewIntSeries("id", []int64{1, 2, 3, 4}, nil),
		NewStringSeries("sex", []string{"f", "m", "m", "f"}, nil),
		NewFloatSeries("age", []float64{18, 26, 38, 65}, []bool{true, true, true, false}),
		NewBoolSeries("survived", []bool{false, true, false, false}, nil),
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewRejectsBadSchemas(t *testing.T) {
	if _, err := New(
		NewIntSeries("a", []int64{1}, nil),
		NewIntSeries("a", []int64{2}, nil),
	); err == nil {
		t.Error("expected duplicate column error")
	}
	if _, err := New(
		NewIntSeries("a", []int64{1}, nil),
		NewIntSeries("b", []int64{1, 2}, nil),
	); err == nil {
		t.Error("expected length mismatch error")
	}
}

func TestFrameAccessors(t *testing.T) {
	f := sampleFrame(t)
	if f.NumRows() != 4 || f.NumCols() != 4 {
		t.Fatalf("shape = %dx%d", f.NumRows(), f.NumCols())
	}
	if !f.HasColumn("age") || f.HasColumn("nope") {
		t.Error("HasColumn wrong")
	}
	v, err := f.Value(3, "age")
	if err != nil || !v.IsNull() {
		t.Errorf("Value(3,age) = %v, %v", v, err)
	}
	if _, err := f.Value(9, "age"); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := f.Column("nope"); err == nil {
		t.Error("expected missing column error")
	}
}

func TestSelectDropRename(t *testing.T) {
	f := sampleFrame(t)
	sel, err := f.Select("sex", "id")
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.ColumnNames(); got[0] != "sex" || got[1] != "id" || len(got) != 2 {
		t.Errorf("Select names = %v", got)
	}
}

func TestFilterReturnsLineage(t *testing.T) {
	f := sampleFrame(t)
	got, idx := f.Filter(func(r Row) bool { return r.Str("sex") == "m" })
	if got.NumRows() != 2 || idx[0] != 1 || idx[1] != 2 {
		t.Errorf("Filter rows=%d idx=%v", got.NumRows(), idx)
	}
	if got.MustColumn("id").Int(0) != 2 {
		t.Error("filtered data wrong")
	}
}

func TestConcatLineage(t *testing.T) {
	f := sampleFrame(t)
	g := sampleFrame(t)
	all, sf, sr, err := Concat(f, g)
	if err != nil {
		t.Fatal(err)
	}
	if all.NumRows() != 8 {
		t.Fatalf("rows = %d", all.NumRows())
	}
	if sf[5] != 1 || sr[5] != 1 {
		t.Errorf("lineage = %v %v", sf, sr)
	}
	bad := MustNew(NewIntSeries("id", []int64{1}, nil))
	if _, _, _, err := Concat(f, bad); err == nil {
		t.Error("expected schema mismatch")
	}
}

func TestWithColumnReplaceAndAdd(t *testing.T) {
	f := sampleFrame(t)
	repl, err := f.WithColumn(NewIntSeries("id", []int64{9, 9, 9, 9}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if repl.MustColumn("id").Int(0) != 9 || repl.NumCols() != 4 {
		t.Error("replace failed")
	}
	added, err := f.WithColumn(NewIntSeries("extra", []int64{1, 1, 1, 1}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if added.NumCols() != 5 {
		t.Error("add failed")
	}
	if f.MustColumn("id").Int(0) != 1 {
		t.Error("WithColumn mutated receiver")
	}
}

func TestMap(t *testing.T) {
	f := sampleFrame(t)
	g, err := f.Map("is_adult", KindBool, func(r Row) (Value, error) {
		if r.IsNull("age") {
			return Null(), nil
		}
		return Bool(r.Value("age").Float() >= 18), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c := g.MustColumn("is_adult")
	if !c.Value(0).Equal(Bool(true)) || !c.IsNull(3) {
		t.Error("Map values wrong")
	}
}

func TestTakeRepeats(t *testing.T) {
	f := sampleFrame(t)
	g := f.Take([]int{0, 0, 3})
	if g.NumRows() != 3 || g.MustColumn("id").Int(1) != 1 || g.MustColumn("id").Int(2) != 4 {
		t.Error("Take wrong")
	}
}

func TestEqualAndClone(t *testing.T) {
	f := sampleFrame(t)
	g := f.Clone()
	if !f.Equal(g) {
		t.Error("clone should be equal")
	}
	if err := g.MustColumn("id").Set(0, Int(42)); err != nil {
		t.Fatal(err)
	}
	if f.Equal(g) {
		t.Error("mutated clone should differ")
	}
	if f.MustColumn("id").Int(0) != 1 {
		t.Error("clone shares storage")
	}
}

func TestHeadAndRender(t *testing.T) {
	f := sampleFrame(t)
	out := f.Render(2)
	if !strings.Contains(out, "sex") || !strings.Contains(out, "(2 more rows)") || !strings.Contains(out, "[4 rows x 4 columns]") {
		t.Errorf("Render output unexpected:\n%s", out)
	}
}

func TestEmptyFrame(t *testing.T) {
	f := MustNew()
	if f.NumRows() != 0 || f.NumCols() != 0 {
		t.Error("empty frame shape wrong")
	}
	out, _, _, err := Concat()
	if err != nil || out.NumRows() != 0 {
		t.Error("empty concat wrong")
	}
}
