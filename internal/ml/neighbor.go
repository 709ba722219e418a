package ml

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"nde/internal/linalg"
	"nde/internal/nderr"
	"nde/internal/par"
)

// NeighborIndex answers neighbor-ordering questions for a fixed (train,
// queries) pair: each query's full argsort (for closed-form Shapley and
// what-if votes), its top-k (for prediction), and batch prediction for
// classifiers. The per-query order table is the index: 4 bytes per
// (query, training row), built once, from which top-k lists are
// prefixes. Building it runs the batched linalg kernel one block of
// query rows at a time into per-worker scratch and argsorts the rows
// there, so no query×train distance matrix is kept. D2 computes and
// keeps that matrix only for the callers that ask for it.
//
// The order table and the matrix are computed lazily, at most once, and
// are safe for concurrent use after construction. All orderings use the
// deterministic total order (squared distance, then training index),
// matching KNN's tie-breaking.
type NeighborIndex struct {
	// Train is the training set. A derived index (RemoveRows) holds only
	// its survivors' labels here (Train.X and Train.Groups are nil): its
	// features and groups are its root's rows, and TrainSet gathers them.
	Train   *Dataset
	Queries *Dataset
	// Workers bounds the pool used for the kernel and the batch argsort
	// (<= 0 = auto).
	Workers int

	d2Once sync.Once
	d2     atomic.Pointer[linalg.Matrix] // Queries.Len() × Train.Len(), once D2 ran

	ordersOnce  sync.Once
	orders      []int32 // flat q×n argsort rows; Order(qi) returns a view
	ordersReady atomic.Bool

	topk topkCache // per-query top-k lists shared by prediction + derivation

	// delta, when non-nil, marks a derived index: answers come from the
	// root's order table instead of fresh kernels (neighbor_delta.go).
	delta *deltaGeom
}

// topkCache holds the per-query top-k lists for one k: flat q×k training
// ids, each row ascending by (distance, id). Guarded by mu so concurrent
// callers with different k serialize; derivation snapshots it to repair
// children in O(q·k).
type topkCache struct {
	mu  sync.Mutex
	k   int
	ids []int32
}

// NewNeighborIndex builds an index over the given train and query sets.
// Distances are not computed until the first use, but both feature
// matrices are validated here: a single NaN feature would make the
// (distance, index) comparator a non-strict weak order, so quickselect and
// argsort would return silently wrong neighbors. Rejecting NaN/Inf at
// build time (wrapping nderr.ErrNonFinite) turns that silent corruption
// into a diagnosable error. Training ids are stored as int32, so more
// than math.MaxInt32 training rows wrap nderr.ErrDegenerateInput.
func NewNeighborIndex(train, queries *Dataset, workers int) (*NeighborIndex, error) {
	if train == nil || queries == nil || train.X == nil || queries.X == nil {
		return nil, nderr.Empty("ml: NeighborIndex needs train and query sets with features")
	}
	if train.Len() == 0 {
		return nil, nderr.Empty("ml: NeighborIndex training set")
	}
	if err := checkTrainRows(train.Len()); err != nil {
		return nil, err
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

// checkTrainRows rejects a training set whose row ids do not fit the
// order table's int32 entries.
func checkTrainRows(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("ml: NeighborIndex training set of %d rows exceeds %d: %w", n, math.MaxInt32, nderr.ErrDegenerateInput)
	}
	return nil
}

// D2 returns the query×train squared-distance matrix, computing it on
// first use via linalg.PairwiseSquaredDistances over the index's rows
// (TrainSet), derived or not: each element depends only on its two rows,
// so a derived index's matrix is bit-identical to its root's surviving
// columns. Only tests and TopK on an index without an order table read
// it; the order table does not need it.
func (ix *NeighborIndex) D2() *linalg.Matrix {
	ix.d2Once.Do(func() {
		ix.d2.Store(linalg.PairwiseSquaredDistances(ix.Queries.X, ix.TrainSet().X, ix.Workers))
	})
	return ix.d2.Load()
}

// neighborScratch is one worker's memory for building order rows: a
// block of distance rows and the argsort's buffers.
type neighborScratch struct {
	d2   []float64
	sort argsortScratch
}

// ensureOrders materializes the full per-query argsort table once. A
// derived index walks the root's cached order past its tombstones in
// O(n) per query — no sorting; the kNN-Shapley kernel never asks for
// this table, reading the root's order itself (Walk). A root whose D2
// already ran sorts the stored rows; otherwise each block of
// linalg.D2RowBlock queries runs the kernel into its worker's scratch
// and is sorted there. No served path asks for D2 first; the
// benchmark's traced pass (bench/trace.go) does, timing the kernel as
// D2() and the sort as the first Order, so the stored rows keep a
// second kernel run out of the sort's span.
func (ix *NeighborIndex) ensureOrders() {
	ix.ordersOnce.Do(func() {
		n := ix.Train.Len()
		nq := ix.Queries.Len()
		orders := make([]int32, nq*n)
		switch g, d2 := ix.delta, ix.d2.Load(); {
		case g != nil:
			par.For("ml.neighbor_delta_walk", ix.Workers, nq, func(_, q int) {
				g.walkInto(q, orders[q*n:(q+1)*n])
			})
		case d2 != nil:
			scratch := make([]argsortScratch, par.Workers(ix.Workers, nq))
			par.For("ml.neighbor_argsort", ix.Workers, nq, func(w, q int) {
				argsortInto(d2.Row(q), orders[q*n:(q+1)*n], &scratch[w])
			})
		default:
			qx, tx := ix.Queries.X, ix.Train.X
			nqn, ntn := linalg.RowNorms2(qx), linalg.RowNorms2(tx)
			scratch := make([]neighborScratch, par.Workers(ix.Workers, nq))
			par.ForBlocks("ml.neighbor_build", ix.Workers, nq, linalg.D2RowBlock, func(w, lo, hi int) {
				s := &scratch[w]
				if s.d2 == nil {
					s.d2 = make([]float64, min(linalg.D2RowBlock, nq)*n)
				}
				linalg.PairwiseD2Rows(qx, tx, nqn, ntn, lo, hi, s.d2)
				for q := lo; q < hi; q++ {
					argsortInto(s.d2[(q-lo)*n:(q-lo+1)*n], orders[q*n:(q+1)*n], &s.sort)
				}
			})
		}
		ix.orders = orders
		ix.ordersReady.Store(true)
	})
}

// Order returns the training indices sorted by ascending squared distance
// to query qi (ties by index). The slice is a view into the index's cached
// order table and MUST NOT be mutated by the caller.
func (ix *NeighborIndex) Order(qi int) []int32 {
	ix.ensureOrders()
	n := ix.Train.Len()
	return ix.orders[qi*n : (qi+1)*n]
}

// TopK returns the k training indices nearest to query qi, sorted by
// ascending squared distance (ties by index). k is clamped to the
// training size. The slice is freshly allocated. With an order table it
// is the row's prefix; a derived index without one walks its root's
// order; otherwise an O(n) quickselect over the distance row pulls the k
// smallest, then only those are sorted.
func (ix *NeighborIndex) TopK(qi, k int) []int {
	n := ix.Train.Len()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	out := make([]int, k)
	switch {
	case ix.ordersReady.Load():
		for i, id := range ix.Order(qi)[:k] {
			out[i] = int(id)
		}
	case ix.delta != nil:
		ids := make([]int32, k)
		ix.delta.walkInto(qi, ids)
		for i, id := range ids {
			out[i] = int(id)
		}
	default:
		pairs := make([]distIdx, n)
		for i, d := range ix.D2().Row(qi) {
			pairs[i] = distIdx{d: d, i: i}
		}
		selectK(pairs, k)
		top := pairs[:k]
		sort.Sort(byDistIdx(top))
		for i, p := range top {
			out[i] = p.i
		}
	}
	return out
}

// nearestInto writes into out the len(out) ids nearest under row (row[id]
// is id's squared distance), ascending by (distance, id); len(out) must
// be in [1, len(row)]. out holds a max-heap of the nearest ids seen so
// far, so an id that does not enter costs one comparison, and is sorted
// in place at the end: O(n + (m+k)·log k) when m ids enter, with no
// scratch beyond out.
func nearestInto[T int | int32](row []float64, out []T) {
	k := len(out)
	for i := range out {
		out[i] = T(i)
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(row, out, i)
	}
	worst := row[out[0]]
	for i := k; i < len(row); i++ {
		// every id in the heap is below i, so i enters only on a
		// strictly smaller distance
		if row[i] < worst {
			out[0] = T(i)
			siftDown(row, out, 0)
			worst = row[out[0]]
		}
	}
	for end := k - 1; end > 0; end-- {
		out[0], out[end] = out[end], out[0]
		siftDown(row, out[:end], 0)
	}
}

// siftDown moves h[i] down until the max-heap h is ordered by (row[id],
// id) again.
func siftDown[T int | int32](row []float64, h []T, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && (row[h[c+1]] > row[h[c]] || row[h[c+1]] == row[h[c]] && h[c+1] > h[c]) {
			c++
		}
		if row[h[c]] < row[h[i]] || row[h[c]] == row[h[i]] && h[c] < h[i] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// tallyVotes counts the labels of the given training indices into votes
// (reset to zero on return) and returns the majority label, vote ties
// breaking toward the smaller label. The winner depends only on the SET of
// indices, so callers may pass top-k candidates in any order.
func tallyVotes[T int | int32](votes []int, trainY []int, top []T) int {
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

// PredictBatch classifies every query by the majority label among its k
// nearest training points, vote ties breaking toward the smaller label:
// KNN.Predict row by row, whose distances come from the same kernel.
func (ix *NeighborIndex) PredictBatch(k int) []int {
	out, _ := ix.PredictBatchLabels(k, ix.Train.Y) // error impossible: lengths match
	return out
}

// ensureTopK returns the cached flat q×kk top-k id table, building it if
// absent or cached for a different k: from the order table's prefixes
// when it exists, by walking the root's order on a derived index, and
// otherwise by running the kernel one block of linalg.D2RowBlock queries
// at a time into per-worker scratch, as ensureOrders does, and selecting
// each row's nearest there (nearestInto), so no distance matrix is
// stored. The (distance, id) total order makes all three the same ids in
// the same order. The returned slice is owned by the cache and must not
// be mutated. Requires 1 <= kk <= Train.Len().
func (ix *NeighborIndex) ensureTopK(kk int) []int32 {
	ix.topk.mu.Lock()
	defer ix.topk.mu.Unlock()
	if ix.topk.k == kk && ix.topk.ids != nil {
		return ix.topk.ids
	}
	n := ix.Train.Len()
	nq := ix.Queries.Len()
	ids := make([]int32, nq*kk)
	switch g := ix.delta; {
	case ix.ordersReady.Load():
		for q := 0; q < nq; q++ {
			copy(ids[q*kk:(q+1)*kk], ix.orders[q*n:])
		}
	case g != nil:
		par.For("ml.neighbor_topk_walk", ix.Workers, nq, func(_, q int) {
			g.walkInto(q, ids[q*kk:(q+1)*kk])
		})
	default:
		qx, tx := ix.Queries.X, ix.Train.X
		nqn, ntn := linalg.RowNorms2(qx), linalg.RowNorms2(tx)
		scratch := make([][]float64, par.Workers(ix.Workers, nq))
		par.ForBlocks("ml.neighbor_topk_build", ix.Workers, nq, linalg.D2RowBlock, func(w, lo, hi int) {
			if scratch[w] == nil {
				scratch[w] = make([]float64, min(linalg.D2RowBlock, nq)*n)
			}
			d2 := scratch[w]
			linalg.PairwiseD2Rows(qx, tx, nqn, ntn, lo, hi, d2)
			for q := lo; q < hi; q++ {
				nearestInto(d2[(q-lo)*n:(q-lo+1)*n], ids[q*kk:(q+1)*kk])
			}
		})
	}
	ix.topk.k, ix.topk.ids = kk, ids
	return ids
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

// PredictBatchLabels is PredictBatch voting with caller-provided training
// labels instead of the index's own. Required when the caller holds
// fresher labels than the index's Train snapshot — cached/derived indexes
// are keyed by feature-matrix fingerprints only, so their geometry may
// legitimately be shared across label revisions. trainY needs one
// non-negative label per training row.
//
// The per-query top-k lists are built once into the index's top-k cache
// and the vote tally is a cheap O(queries·k) pass, so repeated
// predictions and delta-derived children reuse the selection work.
func (ix *NeighborIndex) PredictBatchLabels(k int, trainY []int) ([]int, error) {
	n := ix.Train.Len()
	nc, err := labelClasses("PredictBatchLabels", trainY, n)
	if err != nil {
		return nil, err
	}
	nq := ix.Queries.Len()
	out := make([]int, nq)
	kk := min(k, n)
	if kk <= 0 {
		return out, nil
	}
	ids := ix.ensureTopK(kk)
	votes := make([]int, nc)
	for q := 0; q < nq; q++ {
		out[q] = tallyVotes(votes, trainY, ids[q*kk:(q+1)*kk])
	}
	return out, nil
}
