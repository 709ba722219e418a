package nde

import (
	"time"

	"nde/internal/importance"
	"nde/internal/ml"
)

// Neighbor facade: bounds the shared neighbor-index cache that
// kNN-Shapley scoring and kNN what-ifs read, and answers nearest-letter
// queries by exact search.

// SetNeighborIndexCacheCapacity bounds the shared neighbor-index LRU cache
// (default 4) and returns the previous capacity. Shrinking evicts the
// least recently used entries immediately. n < 1 is rejected with a
// wrapped ErrDegenerateInput, leaving the capacity unchanged (the current
// value is returned alongside the error).
func SetNeighborIndexCacheCapacity(n int) (int, error) { return importance.SetIndexCacheCapacity(n) }

// NeighborIndexCacheCapacity returns the current shared-cache capacity.
func NeighborIndexCacheCapacity() int { return importance.IndexCacheCapacity() }

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
