package importance

import "nde/internal/ml"

// The kNN-Shapley hot paths all need the same valid×train distance
// geometry, and callers (iterative cleaning, repeated experiments,
// benchmarks, concurrent serving requests) invoke them many times over
// datasets whose *features* never change — only labels do. They take it
// from the process-wide neighbor-index store in internal/ml, which the
// kNN what-if path shares; see internal/ml/neighbor_store.go for its keys,
// concurrency contract and metrics.
//
// IMPORTANT: a cached index may hold *stale labels* (its Datasets are the
// ones from the first call). Callers must therefore use only the
// geometry methods of the returned index (D2, Order, TopK) and read labels
// from their own arguments — never Predict* on a cached index.

// SetIndexCacheCapacity resizes the shared neighbor-index store and
// returns the previous capacity; see ml.SetSharedIndexCapacity.
func SetIndexCacheCapacity(n int) (int, error) { return ml.SetSharedIndexCapacity(n) }

// IndexCacheCapacity returns the current LRU capacity.
func IndexCacheCapacity() int { return ml.SharedIndexCapacity() }

// sharedNeighborIndex returns the shared NeighborIndex for (train, valid)
// — valid rows are the queries — hashing both feature matrices for its
// key.
func sharedNeighborIndex(train, valid *ml.Dataset, workers int) (*ml.NeighborIndex, error) {
	return ml.SharedIndex(ml.KeyOf(train, valid), train, valid, workers)
}

// ResetNeighborIndexCache drops every cached index. Intended for tests and
// for long-lived processes that want to bound memory between workloads.
// In-flight builds are unaffected: their waiters still receive the built
// index, it just is no longer cached afterwards.
func ResetNeighborIndexCache() { ml.ResetSharedIndexes() }
