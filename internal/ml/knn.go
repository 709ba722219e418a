package ml

import (
	"fmt"
	"math"

	"nde/internal/linalg"
	"nde/internal/nderr"
	"nde/internal/par"
)

// KNN is a k-nearest-neighbors classifier under Euclidean distance. Ties in
// the vote break toward the smaller label; ties in distance break toward the
// smaller training index, so predictions are fully deterministic.
//
// Internally all ranking happens on squared distances (sqrt is monotone, so
// the order is identical and the per-pair sqrt is skipped), neighbor order
// is the (distance, index) total order — full orderings from a stable
// radix argsort, top-k sets from a comparator quickselect — and votes are
// tallied in a label-indexed slice. Batch workloads
// should go through a NeighborIndex, which computes all query×train
// distances through the batched linalg kernel, or through Neighborhoods
// where the predictions must equal Predict's and only the training labels
// change between batches.
type KNN struct {
	K     int
	train *Dataset
	nc    int // cached NumClasses of train
}

// NewKNN returns a kNN classifier with the given k (k >= 1).
func NewKNN(k int) *KNN { return &KNN{K: k} }

// Fit memorizes the training set.
func (m *KNN) Fit(d *Dataset) error {
	if m.K < 1 {
		return fmt.Errorf("ml: kNN requires K >= 1, got %d", m.K)
	}
	if d.Len() == 0 {
		return fmt.Errorf("ml: kNN cannot fit an empty dataset")
	}
	m.train = d
	m.nc = d.NumClasses()
	return nil
}

// SquaredDistance returns the squared L2 distance between two equal-length
// vectors. Ranking by squared distance is equivalent to ranking by
// Euclidean distance and skips the per-pair sqrt.
func SquaredDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("ml: distance dims %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// topK selects the k nearest training rows to x (k clamped to the
// training size) without sorting the full training set: it fills pairs
// (length Train.Len(), caller scratch) with (squared distance, index)
// pairs, quickselects the k smallest, and writes their ids, in
// unspecified order, into out. It returns out[:k]. Predict, Proba and
// Neighborhoods all select through it, so their neighbor sets agree.
func (m *KNN) topK(x []float64, k int, pairs []distIdx, out []int) []int {
	n := m.train.Len()
	if k > n {
		k = n
	}
	for i := 0; i < n; i++ {
		pairs[i] = distIdx{d: SquaredDistance(m.train.Row(i), x), i: i}
	}
	selectK(pairs, k)
	for j, p := range pairs[:k] {
		out[j] = p.i
	}
	return out[:k]
}

// Predict returns the majority label among the k nearest training points.
func (m *KNN) Predict(x []float64) int {
	if m.train == nil {
		panic("ml: Predict before Fit")
	}
	k := min(m.K, m.train.Len())
	buf := make([]int, k+m.nc) // top-k ids, then the vote tally
	top := m.topK(x, k, make([]distIdx, m.train.Len()), buf[:k])
	votes := buf[k:]
	for _, i := range top {
		if y := m.train.Y[i]; y >= len(votes) { // labels mutated after Fit; grow defensively
			votes = append(votes, make([]int, y+1-len(votes))...)
		}
	}
	return tallyVotes(votes, m.train.Y, top)
}

// Neighborhoods is a fitted KNN's neighbor selection over a batch of
// query rows: each row's k nearest training ids under the features the
// model was fitted on, from the same selection Predict runs. A kNN uses
// its training labels only in the vote over those ids, so Vote predicts
// the whole batch under any label vector in O(queries·k), equal to
// refitting on those labels and calling Predict row by row. Read-only
// after construction and safe for concurrent use.
type Neighborhoods struct {
	k, n, nq int   // neighbors per query (K clamped to n), training rows, queries
	ids      []int // flat nq×k; each row's ids in unspecified order
}

// Neighborhoods selects the k nearest training rows of every query row,
// in parallel over rows on the shared pool (workers <= 0 = auto), with
// one selection buffer per worker. The result does not depend on the
// worker count.
func (m *KNN) Neighborhoods(queries *Dataset, workers int) (*Neighborhoods, error) {
	if m.train == nil {
		return nil, fmt.Errorf("ml: Neighborhoods before Fit")
	}
	if queries.Dim() != m.train.Dim() {
		return nil, nderr.Mismatch("ml: Neighborhoods query dims", m.train.Dim(), queries.Dim())
	}
	n, nq := m.train.Len(), queries.Len()
	k := min(m.K, n)
	nb := &Neighborhoods{k: k, n: n, nq: nq, ids: make([]int, nq*k)}
	scratch := make([][]distIdx, par.Workers(workers, nq))
	par.For("ml.knn_neighborhoods", workers, nq, func(w, q int) {
		if scratch[w] == nil {
			scratch[w] = make([]distIdx, n)
		}
		m.topK(queries.Row(q), k, scratch[w], nb.ids[q*k:(q+1)*k])
	})
	return nb, nil
}

// Vote predicts every query row by the majority label of its neighbors
// under the caller's training labels (one non-negative label per training
// row), vote ties breaking toward the smaller label exactly as Predict
// does.
func (nb *Neighborhoods) Vote(trainY []int) ([]int, error) {
	nc, err := labelClasses("Neighborhoods.Vote", trainY, nb.n)
	if err != nil {
		return nil, err
	}
	votes := make([]int, nc)
	out := make([]int, nb.nq)
	for q := range out {
		out[q] = tallyVotes(votes, trainY, nb.ids[q*nb.k:(q+1)*nb.k])
	}
	return out, nil
}

// Proba returns the vote fractions over classes among the k nearest points.
func (m *KNN) Proba(x []float64) []float64 {
	if m.train == nil {
		panic("ml: Proba before Fit")
	}
	nc := m.train.NumClasses()
	out := make([]float64, nc)
	k := min(m.K, m.train.Len())
	for _, i := range m.topK(x, k, make([]distIdx, m.train.Len()), make([]int, k)) {
		out[m.train.Y[i]]++
	}
	linalg.Scale(1/float64(k), out)
	return out
}

// EuclideanDistance returns the L2 distance between two equal-length vectors.
func EuclideanDistance(a, b []float64) float64 {
	return math.Sqrt(SquaredDistance(a, b))
}
