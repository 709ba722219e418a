package ml

import (
	"fmt"

	"nde/internal/linalg"
	"nde/internal/nderr"
	"nde/internal/obs"
	"nde/internal/store"
)

// IndexStore is a bounded neighbor-index store. Its two consumers need
// the same query×train geometry over datasets whose features rarely
// change: kNN-Shapley scoring reads the full per-query orders, and kNN
// what-if batches vote over their surviving prefixes. An owner that
// serves both — a serve.Server, or the nde facade's package-level
// functions — holds one IndexStore and looks every index up in it, so
// the order table, 4 bytes per (query, training row) and no distance
// matrix, is built once per geometry and shared across calls and
// concurrent requests. The kernels keep no
// store of their own: importance.KNNShapleyWithIndex,
// importance.KNNShapleyDerive and pipeline.WhatIfRemovalsWithIndex take
// the index an owner resolved here. Keys are content fingerprints
// (linalg.Matrix.Fingerprint) of both feature matrices, not pointer
// identities, so an in-place feature mutation gets a fresh index. The
// caller supplies the key (IndexKey): one that already holds both
// fingerprints — internal/serve computes them once per registered dataset
// — looks an index up without touching the matrices, and the others hash
// them with KeyOf. A hit still compares the stored index's matrices with
// the caller's (Index), so a forged fingerprint gets its own index.
//
// Concurrency: lookups are singleflight and eviction is LRU over ready
// entries only — an in-flight build is never evicted, so concurrent
// same-key callers always share one build even while other geometries
// churn the store past its bound (see internal/store).
//
// Labels: the key covers features only, so a stored index may carry
// another label revision's Train.Y. Consumers read geometry from it
// (Order, TopK) and labels from their own arguments (PredictBatchLabels,
// PredictSurvivors) — never PredictBatch.
//
// Metrics keep the names the store exported when it lived in
// internal/importance: importance_neighbor_index_{hits,misses,evictions,
// waits,collisions}_total plus the importance_neighbor_index_{entries,
// inflight} gauges. Every IndexStore in a process adds to the same
// counters (obs metrics are process-wide), and the gauges read the store
// that changed last. A "wait" is a caller that blocked on another
// goroutine's in-flight build.
type IndexStore struct {
	s *store.Store[IndexKey, *NeighborIndex]
}

// indexStoreCapacity bounds the ready indexes of one IndexStore.
const indexStoreCapacity = 4

// NewIndexStore returns an empty store that keeps at most four ready
// indexes.
func NewIndexStore() *IndexStore {
	return &IndexStore{s: store.New[IndexKey, *NeighborIndex]("importance_neighbor_index", indexStoreCapacity)}
}

// IndexKey is the store key of one geometry: the content fingerprints
// (linalg.Matrix.Fingerprint) of its training and query feature matrices.
type IndexKey struct {
	Train, Queries uint64
}

// KeyOf hashes both feature matrices into the store key of (train,
// queries).
func KeyOf(train, queries *Dataset) IndexKey {
	return IndexKey{Train: train.X.Fingerprint(), Queries: queries.X.Fingerprint()}
}

// Index returns the stored index over (train, queries) under key,
// building it with NewNeighborIndex on a miss. key must be KeyOf(train,
// queries); a caller that already holds both fingerprints builds it from
// them instead of hashing again. Concurrent callers for the same geometry
// share one build; a failed build (the validation errors of
// NewNeighborIndex) is returned and not stored.
//
// A hit is checked, not trusted: a 64-bit fingerprint can be forged, so
// the stored index's feature matrices must be the caller's, by pointer
// (every hit of a caller that keeps its matrices) or else bit for bit.
// When they are not, another geometry holds the key: Index counts
// importance_neighbor_index_collisions_total and returns an index over
// the caller's own matrices, which it does not store.
func (st *IndexStore) Index(key IndexKey, train, queries *Dataset, workers int) (*NeighborIndex, error) {
	if train == nil || queries == nil {
		return NewNeighborIndex(train, queries, workers) // reports the nil set; not a store miss
	}
	ix, err := st.s.GetOrBuild(key, func() (*NeighborIndex, error) {
		return NewNeighborIndex(train, queries, workers)
	})
	if err != nil || linalg.SameBits(ix.Train.X, train.X) && linalg.SameBits(ix.Queries.X, queries.X) {
		return ix, err
	}
	obs.Inc("importance_neighbor_index_collisions_total")
	return NewNeighborIndex(train, queries, workers)
}

// PredictSurvivors is PredictBatchLabels over only the training rows i
// with alive[i], answered from the exact order table: for each query it
// tallies trainY over the first k alive rows of Order(qi), or over all of
// them when fewer than k are alive. Dropping rows keeps the (distance,
// index) order of the rest, so those rows are exactly the top-k of an
// index rebuilt over the alive rows alone, and the predictions equal that
// index's PredictBatch(k) — with no distance kernel, no selection and no
// derived index. A query whose nearest rows are mostly dead walks further
// down its order, up to O(n).
//
// Labels come only from trainY, never from Train.Y (a stored index may
// carry another label revision); trainY needs one non-negative label per
// training row, and alive one entry per training row.
func (ix *NeighborIndex) PredictSurvivors(k int, trainY []int, alive []bool) ([]int, error) {
	n := ix.Train.Len()
	nc, err := labelClasses("PredictSurvivors", trainY, n)
	if err != nil {
		return nil, err
	}
	if len(alive) != n {
		return nil, nderr.Mismatch("ml: PredictSurvivors alive rows", n, len(alive))
	}
	out := make([]int, ix.Queries.Len())
	if k <= 0 {
		return out, nil
	}
	votes := make([]int, nc)
	top := make([]int32, 0, min(k, n))
	for q := range out {
		top = top[:0]
		for _, i := range ix.Order(q) {
			if len(top) == k {
				break
			}
			if alive[i] {
				top = append(top, i)
			}
		}
		out[q] = tallyVotes(votes, trainY, top)
	}
	return out, nil
}

// labelClasses checks caller labels for a vote over n training rows — one
// non-negative label per row — and returns the class count that sizes the
// vote buffer.
func labelClasses(what string, trainY []int, n int) (int, error) {
	if len(trainY) != n {
		return 0, nderr.Mismatch("ml: "+what+" labels", n, len(trainY))
	}
	nc := 0
	for i, y := range trainY {
		if y < 0 {
			return 0, fmt.Errorf("ml: negative label %d at training row %d: %w", y, i, nderr.ErrDegenerateInput)
		}
		nc = max(nc, y+1)
	}
	return nc, nil
}
