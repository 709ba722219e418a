package ml

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"nde/internal/linalg"
	"nde/internal/nderr"
)

// tieGrid draws n rows whose three features come from a six-value grid,
// so most queries have many training rows at exactly tied squared
// distances, and labels from classes with no relation to the features.
func tieGrid(n, classes int, seed int64) *Dataset {
	grid := []float64{0, 0.1, 0.2, 0.3, 0.7, 1.1}
	r := rand.New(rand.NewSource(seed))
	x := linalg.NewMatrix(n, 3)
	y := make([]int, n)
	for i := range y {
		for c := 0; c < 3; c++ {
			x.Set(i, c, grid[r.Intn(len(grid))])
		}
		y[i] = r.Intn(classes)
	}
	d, _ := NewDataset(x, y)
	return d
}

// Vote under any label vector equals refitting a fresh KNN on those
// labels and calling Predict row by row — on tie-heavy data, for k below,
// at and above the training size, at every worker count.
func TestNeighborhoodsVoteMatchesPredict(t *testing.T) {
	train := tieGrid(120, 3, 1)
	queries := tieGrid(80, 3, 2)
	r := rand.New(rand.NewSource(3))
	labelSets := [][]int{train.Y}
	for _, classes := range []int{2, 3, 5} { // 5 adds classes absent at build time
		y := make([]int, train.Len())
		for i := range y {
			y[i] = r.Intn(classes)
		}
		labelSets = append(labelSets, y)
	}
	for _, k := range []int{1, 4, 5, 7, train.Len(), train.Len() + 3} {
		m := NewKNN(k)
		if err := m.Fit(train); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, runtime.GOMAXPROCS(0)} {
			nb, err := m.Neighborhoods(queries, workers)
			if err != nil {
				t.Fatal(err)
			}
			for s, y := range labelSets {
				got, err := nb.Vote(y)
				if err != nil {
					t.Fatal(err)
				}
				ref := NewKNN(k)
				if err := ref.Fit(&Dataset{X: train.X, Y: y}); err != nil {
					t.Fatal(err)
				}
				for q := range got {
					if want := ref.Predict(queries.Row(q)); got[q] != want {
						t.Fatalf("k=%d workers=%d labels=%d row %d: Vote %d, Predict %d", k, workers, s, q, got[q], want)
					}
				}
			}
		}
	}
}

// Vote rejects a negative label and a label vector of the wrong length
// with classified errors, and Neighborhoods rejects queries of another
// dimension instead of panicking.
func TestNeighborhoodsErrors(t *testing.T) {
	train := tieGrid(20, 2, 4)
	m := NewKNN(3)
	if _, err := m.Neighborhoods(train, 1); err == nil {
		t.Error("Neighborhoods before Fit: want an error")
	}
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	nb, err := m.Neighborhoods(tieGrid(5, 2, 5), 2)
	if err != nil {
		t.Fatal(err)
	}
	y := append([]int(nil), train.Y...)
	y[7] = -1
	if _, err := nb.Vote(y); !errors.Is(err, nderr.ErrDegenerateInput) {
		t.Errorf("negative label err = %v, want ErrDegenerateInput", err)
	}
	if _, err := nb.Vote(train.Y[:19]); !errors.Is(err, nderr.ErrShapeMismatch) {
		t.Errorf("short labels err = %v, want ErrShapeMismatch", err)
	}
	wide, _ := NewDataset(linalg.NewMatrix(2, 4), []int{0, 1})
	if _, err := m.Neighborhoods(wide, 1); !errors.Is(err, nderr.ErrShapeMismatch) {
		t.Errorf("wide queries err = %v, want ErrShapeMismatch", err)
	}
}

// Neighbors returns the indices of all training points sorted by ascending
// distance to x (distance ties break by index). The slice is freshly
// allocated. Training rows or an x holding NaN leave the order
// unspecified (see argsortInto).
func (m *KNN) Neighbors(x []float64) []int32 {
	n := m.train.Len()
	d2 := make([]float64, n)
	for i := 0; i < n; i++ {
		d2[i] = SquaredDistance(m.train.Row(i), x)
	}
	idx := make([]int32, n)
	argsortInto(d2, idx, &argsortScratch{})
	return idx
}
