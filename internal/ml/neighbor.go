package ml

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"nde/internal/linalg"
	"nde/internal/nderr"
	"nde/internal/par"
)

// NeighborIndex precomputes the query×train squared-distance matrix for a
// fixed (train, queries) pair through the batched linalg kernel, and
// answers neighbor-ordering questions from it: full argsort per query
// (for closed-form Shapley), top-k selection by quickselect (for
// prediction), and batch prediction for classifiers.
//
// The distance matrix and the per-query sort orders are computed lazily,
// at most once, and are safe for concurrent use after construction. All
// orderings use the deterministic total order (squared distance, then
// training index), matching KNN's tie-breaking.
type NeighborIndex struct {
	Train   *Dataset
	Queries *Dataset
	// Workers bounds the pool used for the kernel and the batch argsort
	// (<= 0 = auto).
	Workers int

	d2Once sync.Once
	d2     *linalg.Matrix // Queries.Len() × Train.Len()

	ordersOnce  sync.Once
	orders      []int // flat q×n argsort rows; Order(qi) returns a view
	ordersReady atomic.Bool

	topk topkCache // per-query top-k lists shared by prediction + derivation

	// delta, when non-nil, marks a derived index: answers come from the
	// root's cached geometry instead of fresh kernels (neighbor_delta.go).
	delta *deltaGeom
}

// topkCache holds the per-query top-k lists for one k: flat q×k training
// ids (each row ascending by (distance, id)) plus the k-th distance per
// query. Guarded by mu so concurrent callers with different k serialize;
// derivation snapshots it to repair children in O(q·k).
type topkCache struct {
	mu  sync.Mutex
	k   int
	ids []int
	kth []float64
}

// NewNeighborIndex builds an index over the given train and query sets.
// Distances are not computed until the first use, but both feature
// matrices are validated here: a single NaN feature would make the
// (distance, index) comparator a non-strict weak order, so quickselect and
// argsort would return silently wrong neighbors. Rejecting NaN/Inf at
// build time (wrapping nderr.ErrNonFinite) turns that silent corruption
// into a diagnosable error.
func NewNeighborIndex(train, queries *Dataset, workers int) (*NeighborIndex, error) {
	if train == nil || queries == nil {
		return nil, nderr.Empty("ml: NeighborIndex needs non-nil train and query sets")
	}
	if train.Len() == 0 {
		return nil, nderr.Empty("ml: NeighborIndex training set")
	}
	if train.Dim() != queries.Dim() {
		return nil, nderr.Mismatch("ml: NeighborIndex dims", train.Dim(), queries.Dim())
	}
	if err := train.X.CheckFinite("NeighborIndex train features"); err != nil {
		return nil, fmt.Errorf("ml: %w", err)
	}
	if err := queries.X.CheckFinite("NeighborIndex query features"); err != nil {
		return nil, fmt.Errorf("ml: %w", err)
	}
	return &NeighborIndex{Train: train, Queries: queries, Workers: workers}, nil
}

// D2 returns the query×train squared-distance matrix, computing it on
// first use via linalg.PairwiseSquaredDistances. For a derived index the
// matrix is gathered from the root's cached geometry instead — element
// copies only, bit-identical to rerunning the kernel.
func (ix *NeighborIndex) D2() *linalg.Matrix {
	ix.d2Once.Do(func() {
		if g := ix.delta; g != nil {
			ix.d2 = g.materializeD2(ix.Queries.Len(), ix.Workers)
		} else {
			ix.d2 = linalg.PairwiseSquaredDistances(ix.Queries.X, ix.Train.X, ix.Workers)
		}
	})
	return ix.d2
}

// ensureOrders materializes the full per-query argsort table once. A root
// sorts its distance rows; a derived index merges the root's cached order
// with the extra-slot order in O(n) per query — no sorting — which is
// where the kNN-Shapley delta path gets its speedup.
func (ix *NeighborIndex) ensureOrders() {
	ix.ordersOnce.Do(func() {
		n := ix.Train.Len()
		nq := ix.Queries.Len()
		orders := make([]int, nq*n)
		if g := ix.delta; g != nil {
			g.base.ensureOrders()
			par.For("ml.neighbor_delta_walk", ix.Workers, nq, func(_, q int) {
				g.walkInto(q, orders[q*n:(q+1)*n])
			})
		} else {
			d2 := ix.D2()
			scratch := make([]argsortScratch, par.Workers(ix.Workers, nq))
			par.For("ml.neighbor_argsort", ix.Workers, nq, func(w, q int) {
				argsortInto(d2.Row(q), orders[q*n:(q+1)*n], &scratch[w])
			})
		}
		ix.orders = orders
		ix.ordersReady.Store(true)
	})
}

// Order returns the training indices sorted by ascending squared distance
// to query qi (ties by index). The slice is a view into the index's cached
// order table and MUST NOT be mutated by the caller.
func (ix *NeighborIndex) Order(qi int) []int {
	ix.ensureOrders()
	n := ix.Train.Len()
	return ix.orders[qi*n : (qi+1)*n]
}

// TopK returns the k training indices nearest to query qi, sorted by
// ascending squared distance (ties by index). k is clamped to the
// training size. The slice is freshly allocated. An O(n) quickselect over
// the cached distance row pulls the k smallest, then only those are
// sorted.
func (ix *NeighborIndex) TopK(qi, k int) []int {
	n := ix.Train.Len()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	if g := ix.delta; g != nil {
		// Derived: select against the cached geometry without materializing
		// the full distance matrix for this child.
		pairs := make([]distIdx, n)
		out := make([]int, k)
		g.reselectInto(qi, k, pairs, out)
		return out
	}
	row := ix.D2().Row(qi)
	pairs := make([]distIdx, n)
	out := make([]int, k)
	return ix.topKInto(row, k, pairs, out)
}

// TopKChecked is TopK with strict validation instead of clamping: qi must
// be a valid query index and k must satisfy 1 <= k <= Train.Len().
func (ix *NeighborIndex) TopKChecked(qi, k int) ([]int, error) {
	if nq := ix.Queries.Len(); qi < 0 || qi >= nq {
		return nil, fmt.Errorf("ml: TopK query %d outside [0,%d): %w", qi, nq, nderr.ErrDegenerateInput)
	}
	if n := ix.Train.Len(); k < 1 || k > n {
		return nil, nderr.BadK("ml: TopK", k, n)
	}
	return ix.TopK(qi, k), nil
}

// topKInto is TopK over one distance row, writing into caller-provided
// buffers: pairs must have length Train.Len(), out length k. It returns
// out. Extracted so the batch prediction path can reuse per-worker
// scratch instead of allocating per query.
func (ix *NeighborIndex) topKInto(row []float64, k int, pairs []distIdx, out []int) []int {
	for i := range pairs {
		pairs[i] = distIdx{d: row[i], i: i}
	}
	selectK(pairs, k)
	top := pairs[:k]
	sort.Sort(byDistIdx(top))
	for i, p := range top {
		out[i] = p.i
	}
	return out
}

// PredictRow returns the majority label among the k nearest training
// points to query qi; vote ties break toward the smaller label.
func (ix *NeighborIndex) PredictRow(qi, k int) int {
	votes := make([]int, ix.Train.NumClasses())
	return ix.predictRow(qi, k, votes)
}

// predictRow is PredictRow with a caller-provided (zeroed) vote buffer.
func (ix *NeighborIndex) predictRow(qi, k int, votes []int) int {
	return tallyVotes(votes, ix.Train.Y, ix.TopK(qi, k))
}

// tallyVotes counts the labels of the given training indices into votes
// (reset to zero on return) and returns the majority label, vote ties
// breaking toward the smaller label. The winner depends only on the SET of
// indices, so callers may pass top-k candidates in any order.
func tallyVotes(votes []int, trainY []int, top []int) int {
	for _, i := range top {
		votes[trainY[i]]++
	}
	best, bestVotes := 0, -1
	for y, v := range votes {
		if v > bestVotes {
			best, bestVotes = y, v
		}
		votes[y] = 0 // reset for reuse
	}
	return best
}

// PredictBatch classifies every query with the k-nearest-neighbor vote.
// The result is identical to calling PredictRow per query.
func (ix *NeighborIndex) PredictBatch(k int) []int {
	out, _ := ix.PredictBatchLabels(k, ix.Train.Y) // error impossible: lengths match
	return out
}

// PredictBatchLabels is PredictBatch voting with caller-provided training
// labels instead of the index's own. Required when the caller holds
// fresher labels than the index's Train snapshot — cached/derived indexes
// are keyed by feature-matrix fingerprints only, so their geometry may
// legitimately be shared across label revisions. trainY needs one
// non-negative label per training row.
//
// The per-query top-k lists are built once into the index's top-k cache
// (parallel, per-worker scratch) and the vote tally is a cheap
// O(queries·k) pass, so repeated predictions and delta-derived children
// reuse the selection work.
func (ix *NeighborIndex) PredictBatchLabels(k int, trainY []int) ([]int, error) {
	n := ix.Train.Len()
	if len(trainY) != n {
		return nil, nderr.Mismatch("ml: PredictBatchLabels labels", n, len(trainY))
	}
	nc := 0
	for i, y := range trainY {
		if y < 0 {
			return nil, fmt.Errorf("ml: negative label %d at training row %d: %w", y, i, nderr.ErrDegenerateInput)
		}
		if y >= nc {
			nc = y + 1
		}
	}
	nq := ix.Queries.Len()
	out := make([]int, nq)
	kk := k
	if kk > n {
		kk = n
	}
	if kk <= 0 {
		return out, nil
	}
	ids, _ := ix.ensureTopK(kk)
	votes := make([]int, nc)
	for q := 0; q < nq; q++ {
		out[q] = tallyVotes(votes, trainY, ids[q*kk:(q+1)*kk])
	}
	return out, nil
}

// ensureTopK returns the cached flat q×kk top-k id table and per-query
// k-th distances, building both if absent or cached for a different k.
// The returned slices are owned by the cache and must not be mutated.
// Requires 1 <= kk <= Train.Len().
func (ix *NeighborIndex) ensureTopK(kk int) ([]int, []float64) {
	ix.topk.mu.Lock()
	defer ix.topk.mu.Unlock()
	if ix.topk.k == kk && ix.topk.ids != nil {
		return ix.topk.ids, ix.topk.kth
	}
	n := ix.Train.Len()
	nq := ix.Queries.Len()
	ids := make([]int, nq*kk)
	kth := make([]float64, nq)
	g := ix.delta
	var d2 *linalg.Matrix
	if g == nil {
		d2 = ix.D2()
	}
	scratch := make([][]distIdx, par.Workers(ix.Workers, nq))
	par.For("ml.neighbor_topk_build", ix.Workers, nq, func(w, q int) {
		if scratch[w] == nil {
			scratch[w] = make([]distIdx, n)
		}
		row := ids[q*kk : (q+1)*kk]
		if g != nil {
			kth[q] = g.reselectInto(q, kk, scratch[w], row)
			return
		}
		ix.topKInto(d2.Row(q), kk, scratch[w], row)
		kth[q] = d2.Row(q)[row[kk-1]]
	})
	ix.topk.k, ix.topk.ids, ix.topk.kth = kk, ids, kth
	return ids, kth
}

// distIdx is a (squared distance, training index) pair.
type distIdx struct {
	d float64
	i int
}

// less orders by (distance, index). This is a strict weak order only for
// finite distances — with NaN, both a<b and b<a are false while a and b
// are not equivalent, so quickselect partitions incoherently — which is
// why NewNeighborIndex rejects non-finite features at build time.

func (a distIdx) less(b distIdx) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.i < b.i
}

type byDistIdx []distIdx

func (s byDistIdx) Len() int           { return len(s) }
func (s byDistIdx) Less(a, b int) bool { return s[a].less(s[b]) }
func (s byDistIdx) Swap(a, b int)      { s[a], s[b] = s[b], s[a] }

// selectK partially rearranges a so that its k smallest elements under the
// (distance, index) total order occupy a[:k], in unspecified order.
// Iterative quickselect with median-of-three pivoting; expected O(len(a)).
func selectK(a []distIdx, k int) {
	lo, hi := 0, len(a)
	if k <= 0 || k >= len(a) {
		return
	}
	for hi-lo > 1 {
		p := partition(a, lo, hi)
		switch {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p
		}
	}
}

// partition picks a median-of-three pivot in a[lo:hi], partitions around
// it, and returns its final position.
func partition(a []distIdx, lo, hi int) int {
	mid := lo + (hi-lo)/2
	last := hi - 1
	// median of three → a[mid]
	if a[lo].less(a[mid]) {
		a[lo], a[mid] = a[mid], a[lo]
	}
	if a[lo].less(a[last]) {
		a[lo], a[last] = a[last], a[lo]
	}
	if a[mid].less(a[last]) {
		a[mid], a[last] = a[last], a[mid]
	}
	pivot := a[mid]
	a[mid], a[last] = a[last], a[mid]
	store := lo
	for i := lo; i < last; i++ {
		if a[i].less(pivot) {
			a[i], a[store] = a[store], a[i]
			store++
		}
	}
	a[store], a[last] = a[last], a[store]
	return store
}
