package linalg

import "testing"

func TestSelectColumns(t *testing.T) {
	m := NewMatrix(2, 4)
	copy(m.Data, []float64{0, 1, 2, 3, 10, 11, 12, 13})
	got := m.SelectColumns([]int{3, 0, 0})
	if got.Rows != 2 || got.Cols != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", got.Rows, got.Cols)
	}
	want := []float64{3, 0, 0, 13, 10, 10}
	for i, v := range got.Data {
		if v != want[i] {
			t.Fatalf("Data[%d] = %v, want %v", i, v, want[i])
		}
	}
	if empty := m.SelectColumns(nil); empty.Rows != 2 || empty.Cols != 0 {
		t.Fatalf("empty selection shape = %dx%d, want 2x0", empty.Rows, empty.Cols)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range column must panic")
		}
	}()
	m.SelectColumns([]int{4})
}
