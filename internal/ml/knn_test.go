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

// nearTie is two training rows at the same distance from the one query
// in exact arithmetic, 0.6² + 0.1² = 0.37: row 0 at (0.1, 0.2) labelled 0
// and row 1 at (0.1, 0) labelled 1. Summed as differences both read
// 0.37, so a 1-NN that ranked them that way would break the tie toward
// row 0; the Gram kernel reads 0.36999999999999994 for row 0 and
// 0.3699999999999999 for row 1, so row 1 is nearer.
func nearTie() (train, queries *Dataset) {
	train, _ = NewDataset(linalg.FromRows([][]float64{{0.1, 0.2}, {0.1, 0}}), []int{0, 1})
	queries, _ = NewDataset(linalg.FromRows([][]float64{{0.7, 0.1}}), []int{1})
	return train, queries
}

// The index's cached top-k neighborhoods vote under any label vector as
// a KNN refit on those labels predicts row by row (PredictBatchLabels
// against Fit + Predict): on tie-heavy data, for k below, at and above the
// training size, at every worker count, with label vectors holding
// classes absent from the index's own labels.
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
	for _, workers := range []int{1, 2, 3, runtime.GOMAXPROCS(0)} {
		ix, err := NewNeighborIndex(train, queries, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4, 5, 7, train.Len(), train.Len() + 3} {
			for s, y := range labelSets {
				got, err := ix.PredictBatchLabels(k, y)
				if err != nil {
					t.Fatal(err)
				}
				ref := NewKNN(k)
				if err := ref.Fit(&Dataset{X: train.X, Y: y}); err != nil {
					t.Fatal(err)
				}
				for q := range got {
					if want := ref.Predict(queries.Row(q)); got[q] != want {
						t.Fatalf("k=%d workers=%d labels=%d row %d: vote %d, Predict %d", k, workers, s, q, got[q], want)
					}
				}
			}
		}
	}
}

// A neighborhood vote rejects a negative label and a label vector of the
// wrong length with classified errors instead of panicking, and leaves a
// valid vote on the same index unaffected.
func TestNeighborhoodsErrors(t *testing.T) {
	train := tieGrid(20, 2, 4)
	ix, err := NewNeighborIndex(train, tieGrid(5, 2, 5), 2)
	if err != nil {
		t.Fatal(err)
	}
	y := append([]int(nil), train.Y...)
	y[7] = -1
	if _, err := ix.PredictBatchLabels(3, y); !errors.Is(err, nderr.ErrDegenerateInput) {
		t.Errorf("negative label err = %v, want ErrDegenerateInput", err)
	}
	if _, err := ix.PredictBatchLabels(3, train.Y[:19]); !errors.Is(err, nderr.ErrShapeMismatch) {
		t.Errorf("short labels err = %v, want ErrShapeMismatch", err)
	}
	if got, err := ix.PredictBatchLabels(3, train.Y); err != nil || len(got) != 5 {
		t.Errorf("valid vote after rejected ones = %v, %v; want 5 labels, nil", got, err)
	}
}

// Predict and PredictBatch share one definition of distance, so they
// agree on every prediction of the tie-heavy grid: 500 training and 1000
// query rows, three classes, 8 seeds, k ∈ {1, 3, 5}. A Predict ranking
// by direct differences disagrees on 2556 of these 24000.
func TestPredictMatchesPredictBatchOnGrid(t *testing.T) {
	disagree, total := 0, 0
	for seed := int64(0); seed < 8; seed++ {
		train, queries := tieGrid(500, 3, 2*seed+100), tieGrid(1000, 3, 2*seed+101)
		ix, err := NewNeighborIndex(train, queries, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 5} {
			m := NewKNN(k)
			if err := m.Fit(train); err != nil {
				t.Fatal(err)
			}
			for q, want := range ix.PredictBatch(k) {
				total++
				if m.Predict(queries.Row(q)) != want {
					disagree++
				}
			}
		}
	}
	if disagree != 0 || total != 24000 {
		t.Fatalf("Predict and PredictBatch disagree on %d of %d predictions, want 0 of 24000", disagree, total)
	}
}

// Predict allocates its distance row, plus one buffer of ids and votes
// when k plus the class count passes 16; the one-row view of the query
// and its norm stay on the stack.
func TestPredictAllocs(t *testing.T) {
	train := tieGrid(200, 3, 9)
	x := tieGrid(1, 3, 10).Row(0)
	for _, c := range []struct{ k, allocs int }{{5, 1}, {13, 1}, {14, 2}, {40, 2}} {
		m := NewKNN(c.k)
		if err := m.Fit(train); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(50, func() { m.Predict(x) }); got != float64(c.allocs) {
			t.Errorf("k=%d: Predict allocates %v times, want %d", c.k, got, c.allocs)
		}
	}
}

// Neighbors returns the indices of all training points sorted by ascending
// distance to x (distance ties break by index), from the distance row
// Predict computes. The slice is freshly allocated. Training rows or an x
// holding NaN leave the order unspecified (see argsortInto).
func (m *KNN) Neighbors(x []float64) []int32 {
	n := m.train.Len()
	d2 := make([]float64, n)
	m.topK(x, d2, make([]int, 1))
	idx := make([]int32, n)
	argsortInto(d2, idx, &argsortScratch{})
	return idx
}
