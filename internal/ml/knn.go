package ml

import (
	"fmt"

	"nde/internal/linalg"
)

// KNN is a k-nearest-neighbors classifier under Euclidean distance. Ties in
// the vote break toward the smaller label; ties in distance break toward the
// smaller training index, so predictions are fully deterministic.
//
// Internally all ranking happens on squared distances (sqrt is monotone, so
// the order is identical and the per-pair sqrt is skipped) computed by the
// blocked Gram kernel NeighborIndex builds with, neighbor order is the
// (distance, index) total order, and votes are tallied in a label-indexed
// slice. Predict therefore answers exactly as NeighborIndex.PredictBatch
// over the same rows, near-ties included; batch workloads should go
// through the index, which also caches the selection across label
// revisions (PredictBatchLabels).
type KNN struct {
	K     int
	train *Dataset
	norms []float64 // linalg.RowNorms2(train.X), cached by Fit
	nc    int       // cached NumClasses of train
}

// NewKNN returns a kNN classifier with the given k (k >= 1).
func NewKNN(k int) *KNN { return &KNN{K: k} }

// Fit memorizes the training set and its squared row norms. The model
// keeps d itself, not a copy: labels changed after Fit are voted as they
// are, but features changed after Fit need a refit, or distances mix the
// new features with the old norms.
func (m *KNN) Fit(d *Dataset) error {
	if m.K < 1 {
		return fmt.Errorf("ml: kNN requires K >= 1, got %d", m.K)
	}
	if d.Len() == 0 {
		return fmt.Errorf("ml: kNN cannot fit an empty dataset")
	}
	m.train = d
	m.norms = linalg.RowNorms2(d.X)
	m.nc = d.NumClasses()
	return nil
}

// topK writes x's squared distance to every training row into row
// (length Train.Len(), caller scratch) and the len(out) nearest training
// ids, ascending by (distance, id), into out. The row is
// linalg.PairwiseD2Rows over a one-row view of x, with ‖x‖² summed the
// way linalg.RowNorms2 sums a row, so every distance is bit-identical to
// the one a NeighborIndex over the same rows computes.
func (m *KNN) topK(x, row []float64, out []int) []int {
	if len(x) != m.train.Dim() {
		panic(fmt.Sprintf("ml: distance dims %d vs %d", len(x), m.train.Dim()))
	}
	xn := 0.0
	for _, v := range x {
		xn += v * v
	}
	q := linalg.Matrix{Rows: 1, Cols: len(x), Data: x}
	qn := [1]float64{xn}
	linalg.PairwiseD2Rows(&q, m.train.X, qn[:], m.norms, 0, 1, row)
	nearestInto(row, out)
	return out
}

// Predict returns the majority label among the k nearest training points.
func (m *KNN) Predict(x []float64) int {
	if m.train == nil {
		panic("ml: Predict before Fit")
	}
	k := min(m.K, m.train.Len())
	// top-k ids, then the vote tally: on the stack for small k and few
	// classes, so the distance row is the one allocation
	var small [16]int
	buf := small[:]
	if k+m.nc > len(small) {
		buf = make([]int, k+m.nc)
	}
	top := m.topK(x, make([]float64, m.train.Len()), buf[:k])
	votes := buf[k : k+m.nc]
	for _, i := range top {
		if y := m.train.Y[i]; y >= len(votes) { // labels mutated after Fit; grow defensively
			votes = append(votes, make([]int, y+1-len(votes))...)
		}
	}
	return tallyVotes(votes, m.train.Y, top)
}

// Proba returns the vote fractions over classes among the k nearest points.
func (m *KNN) Proba(x []float64) []float64 {
	if m.train == nil {
		panic("ml: Proba before Fit")
	}
	nc := m.train.NumClasses()
	out := make([]float64, nc)
	k := min(m.K, m.train.Len())
	for _, i := range m.topK(x, make([]float64, m.train.Len()), make([]int, k)) {
		out[m.train.Y[i]]++
	}
	linalg.Scale(1/float64(k), out)
	return out
}
