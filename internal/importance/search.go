package importance

import (
	"sync"

	"nde/internal/ml"
)

// The neighbor-search configuration shared indexes are built under. It
// is part of every shared-index key (ml.SearchConfig.Fingerprint), so
// indexes built under different configurations never alias.

var (
	searchMu    sync.Mutex
	indexSearch ml.SearchConfig
)

// SetNeighborSearch sets the search configuration every subsequently built
// shared index uses. The config fingerprint is part of the cache key, so
// indexes built under a previous config are not aliased — they simply age
// out of the LRU. The kNN-Shapley paths consume the full exact ranking
// (Order) regardless of mode; the mode matters for TopK consumers sharing
// the cache, such as the facade's neighbor search.
func SetNeighborSearch(cfg ml.SearchConfig) {
	searchMu.Lock()
	indexSearch = cfg
	searchMu.Unlock()
}

// NeighborSearch returns the search configuration shared indexes are built
// with.
func NeighborSearch() ml.SearchConfig {
	searchMu.Lock()
	defer searchMu.Unlock()
	return indexSearch
}
