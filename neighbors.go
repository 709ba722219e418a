package nde

import (
	"sync/atomic"
	"time"

	"nde/internal/ml"
)

// Neighbor facade: the neighbor-index store the package-level functions
// share, and nearest-letter queries by exact search.

// indexes is the facade's neighbor-index store. KNNShapleyValues, the
// WhatIf functions, NewDebugSession and IterativeCleaning look their
// geometry up in it, so repeated calls over one dataset build its order
// table once. ResetNeighborIndexCache swaps in an empty store.
var indexes atomic.Pointer[ml.IndexStore]

func init() { indexes.Store(ml.NewIndexStore()) }

// storedIndex returns the neighbor index over (train, valid) from the
// facade's store.
func storedIndex(train, valid *Dataset, workers int) (*ml.NeighborIndex, error) {
	return indexes.Load().Index(ml.KeyOf(train, valid), train, valid, workers)
}

// ResetNeighborIndexCache drops every neighbor index the facade holds: the
// neighbor order tables of the last few (train, valid)
// pairs seen by KNNShapleyValues, the WhatIf functions, NewDebugSession
// and IterativeCleaning (at most 4 indexes). Long-running processes that
// churn through many datasets can call this to release the memory
// eagerly. Safe for concurrent use; in-flight computations keep their own
// reference and finish unaffected.
func ResetNeighborIndexCache() {
	defer recordOp("ResetNeighborIndexCache", time.Now(), 0, 0, nil)
	indexes.Store(ml.NewIndexStore())
}

// NearestLetters featurizes the letters splits (fitting the encoder on
// train) and returns, for each query letter, the indices of its k nearest
// training letters, nearest first (distance ties by index).
func NearestLetters(train, queries *Frame, k int) (_ [][]int, err error) {
	defer recordOp("NearestLetters", time.Now(), frameRows(train), 0, &err)
	if err := checkFrame("train letters", train, "letter_text", "employer_rating", "sentiment"); err != nil {
		return nil, err
	}
	if err := checkFrame("query letters", queries, "letter_text", "employer_rating", "sentiment"); err != nil {
		return nil, err
	}
	ct := LetterFeaturizer()
	dTrain, err := featurizeWith(ct, train, true)
	if err != nil {
		return nil, err
	}
	dQueries, err := featurizeWith(ct, queries, false)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		k = 5
	}
	if err := checkK("NearestLetters", k, dTrain.Len()); err != nil {
		return nil, err
	}
	ix, err := ml.NewNeighborIndex(dTrain, dQueries, 0)
	if err != nil {
		return nil, err
	}
	out := make([][]int, dQueries.Len())
	for q := range out {
		out[q] = ix.TopK(q, k)
	}
	return out, nil
}
