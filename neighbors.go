package nde

import (
	"time"

	"nde/internal/importance"
	"nde/internal/ml"
)

// Neighbor-search facade: selects the backend every neighbor-driven helper
// uses (kNN-Shapley's shared index cache, NearestLetters) and bounds the
// shared index cache. The exact backend is the default and the determinism
// oracle; SearchIVF/SearchAuto trade exactness for sub-linear queries via
// the internal IVF index (float32 kernels, k-means partitions).

// Re-exported search types, so callers can pick a mode without importing
// internal packages.
type (
	// SearchMode selects how neighbor top-k queries are answered.
	SearchMode = ml.SearchMode
	// NeighborSearchConfig tunes the neighbor-search backend (mode,
	// partition count, probes, recall floor). The zero value is exact.
	NeighborSearchConfig = ml.SearchConfig
	// NeighborIndex answers neighbor-ordering queries for a fixed
	// (train, queries) dataset pair.
	NeighborIndex = ml.NeighborIndex
)

// The three search modes; see ml.SearchMode.
const (
	// SearchExact always computes the full float64 distance matrix.
	SearchExact = ml.SearchExact
	// SearchIVF always serves top-k from the approximate IVF index.
	SearchIVF = ml.SearchIVF
	// SearchAuto stays exact for small training sets and switches to IVF
	// only after certifying the configured recall floor on a sample.
	SearchAuto = ml.SearchAuto
)

// ParseSearchMode maps a flag string ("exact", "ivf", "auto") to a
// SearchMode; unknown strings report false.
func ParseSearchMode(s string) (SearchMode, bool) { return ml.ParseSearchMode(s) }

// SetNeighborSearch selects the search configuration used by every
// subsequently built shared neighbor index (kNN-Shapley and the facade
// helpers). Indexes built under other configs stay cached under their own
// keys. Shapley scores are unaffected by the mode — the closed form always
// consumes the exact full ranking — but prediction-style consumers of the
// shared cache pick up the approximate path. kNN what-if batches always
// take the exact configuration's entry.
func SetNeighborSearch(cfg NeighborSearchConfig) { importance.SetNeighborSearch(cfg) }

// NeighborSearch returns the currently configured shared search config.
func NeighborSearch() NeighborSearchConfig { return importance.NeighborSearch() }

// SetNeighborIndexCacheCapacity bounds the shared neighbor-index LRU cache
// (default 4) and returns the previous capacity. Shrinking evicts the
// least recently used entries immediately. n < 1 is rejected with a
// wrapped ErrDegenerateInput, leaving the capacity unchanged (the current
// value is returned alongside the error).
func SetNeighborIndexCacheCapacity(n int) (int, error) { return importance.SetIndexCacheCapacity(n) }

// NeighborIndexCacheCapacity returns the current shared-cache capacity.
func NeighborIndexCacheCapacity() int { return importance.IndexCacheCapacity() }

// NewNeighborSearchIndex builds a NeighborIndex over featurized datasets
// with an explicit search configuration — the facade route to the ANN
// backend for callers that already hold Datasets.
func NewNeighborSearchIndex(train, queries *Dataset, workers int, cfg NeighborSearchConfig) (*NeighborIndex, error) {
	return ml.NewNeighborIndexSearch(train, queries, workers, cfg)
}

// NearestLetters featurizes the letters splits (fitting the encoder on
// train) and returns, for each query letter, the indices of its k nearest
// training letters under the configured search backend, nearest first.
// With SearchIVF/SearchAuto the per-query answers are approximate but the
// per-query exactness fallback still applies: a query whose probed
// partitions hold fewer than k rows is answered exactly.
func NearestLetters(train, queries *Frame, k int, cfg NeighborSearchConfig) (_ [][]int, err error) {
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
	ix, err := ml.NewNeighborIndexSearch(dTrain, dQueries, 0, cfg)
	if err != nil {
		return nil, err
	}
	out := make([][]int, dQueries.Len())
	for q := range out {
		out[q] = ix.TopK(q, k)
	}
	return out, nil
}
