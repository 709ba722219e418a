// Package store is a content-addressed artifact cache with singleflight
// builds: fingerprint key -> built artifact (a neighbor index, a featurized
// table, a score vector), built at most once no matter how many concurrent
// callers ask for it. It generalizes the singleflight neighbor-index cache
// that importance grew in PR 4 into a reusable component the serving layer
// can instantiate per artifact kind.
//
// Concurrency contract (the PR 4 contract, kept): the store mutex guards
// only the entry map and the recency list; builds run outside it, gated per
// key by a ready channel. Concurrent callers for the SAME key share one
// build — later arrivals block on the channel and are counted as waits —
// while callers for DIFFERENT keys build in parallel. Failed builds are
// never cached: the error is delivered to every waiter of that flight and
// the key is removed so a later call can retry.
//
// Eviction is LRU over READY entries only. An in-flight entry is never
// evicted: evicting it would detach the key from the running build, so a
// concurrent same-key caller would silently start a duplicate build of the
// same artifact — the exact singleflight violation the old FIFO cache had.
// When every entry is in flight the store temporarily exceeds its capacity
// (bounded by capacity + in-flight builds) and trims back to the bound as
// builds complete.
//
// Metrics (all under the store's name prefix, no-op while obs is off):
//
//	<name>_hits_total       ready entry served (possibly after a wait)
//	<name>_misses_total     build started
//	<name>_waits_total      caller blocked on another caller's build
//	<name>_evictions_total  LRU eviction past the bound
//	<name>_entries          gauge: current entry count
//	<name>_inflight         gauge: builds currently running
package store

import (
	"sync"

	"nde/internal/obs"
)

// entry is one singleflight slot: ready is closed when the build finishes,
// after which val/err are immutable.
type entry[V any] struct {
	ready chan struct{}
	val   V
	err   error
}

func (e *entry[V]) isReady() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// Store is a bounded content-addressed artifact cache. The zero value is
// not usable; use New. Safe for concurrent use.
type Store[K comparable, V any] struct {
	// Metric names under the store's prefix, precomputed so that
	// GetOrBuild allocates nothing while obs is off: concatenating at the
	// call site would allocate on every call even with telemetry disabled.
	mHits, mMisses, mWaits, mEvictions, mEntries, mInflight string

	mu       sync.Mutex
	capacity int
	entries  map[K]*entry[V]
	order    []K // recency order: order[0] is least recently used
	inflight int
}

// New creates a store that keeps at most capacity ready artifacts
// (minimum 1) and exports its metrics under the given name prefix, e.g.
// name "importance_neighbor_index" yields
// importance_neighbor_index_hits_total.
func New[K comparable, V any](name string, capacity int) *Store[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Store[K, V]{
		mHits:      name + "_hits_total",
		mMisses:    name + "_misses_total",
		mWaits:     name + "_waits_total",
		mEvictions: name + "_evictions_total",
		mEntries:   name + "_entries",
		mInflight:  name + "_inflight",
		capacity:   capacity,
		entries:    map[K]*entry[V]{},
	}
}

// gaugesLocked refreshes the entries/inflight gauges.
func (s *Store[K, V]) gaugesLocked() {
	obs.SetGauge(s.mEntries, float64(len(s.entries)))
	obs.SetGauge(s.mInflight, float64(s.inflight))
}

// GetOrBuild returns the artifact for key, building it with build on a
// miss. Concurrent callers for the same key share one build; the builder's
// error (if any) is delivered to every caller of that flight and nothing is
// cached. build runs without the store lock held and must not call back
// into the same store with the same key.
func (s *Store[K, V]) GetOrBuild(key K, build func() (V, error)) (V, error) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.touchLocked(key)
		s.mu.Unlock()
		if !e.isReady() {
			obs.Inc(s.mWaits)
			<-e.ready
		}
		if e.err != nil {
			var zero V
			return zero, e.err
		}
		obs.Inc(s.mHits)
		return e.val, nil
	}
	obs.Inc(s.mMisses)
	e := &entry[V]{ready: make(chan struct{})}
	// Reserve the slot before building so same-key callers arriving during
	// the build join this flight instead of starting their own.
	s.entries[key] = e
	s.order = append(s.order, key)
	s.inflight++
	s.trimLocked()
	s.gaugesLocked()
	s.mu.Unlock()

	val, err := build()
	e.val, e.err = val, err
	close(e.ready)

	s.mu.Lock()
	s.inflight--
	if err != nil {
		// Drop the failed flight (unless a same-key rebuild superseded it,
		// or the store tests' Reset replaced the map) so the next caller
		// retries instead of being served a cached error.
		if s.entries[key] == e {
			s.removeLocked(key)
		}
	} else {
		// The entry just became ready; if builds overflowed the bound while
		// nothing was evictable, trim back down now.
		s.trimLocked()
	}
	s.gaugesLocked()
	s.mu.Unlock()
	if err != nil {
		var zero V
		return zero, err
	}
	return val, nil
}

// trimLocked evicts least-recently-used READY entries until the store is
// within capacity or only in-flight entries remain.
func (s *Store[K, V]) trimLocked() {
	for len(s.entries) > s.capacity {
		evicted := false
		for _, k := range s.order {
			if s.entries[k].isReady() {
				s.removeLocked(k)
				obs.Inc(s.mEvictions)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything in flight; completion trims back down
		}
	}
}

// removeLocked deletes key from the map and the recency list.
func (s *Store[K, V]) removeLocked(key K) {
	delete(s.entries, key)
	for i, k := range s.order {
		if k == key {
			// copy-down instead of re-slicing so the backing array never
			// retains evicted keys
			copy(s.order[i:], s.order[i+1:])
			s.order = s.order[:len(s.order)-1]
			return
		}
	}
}

// touchLocked moves key to the most-recently-used end.
func (s *Store[K, V]) touchLocked(key K) {
	for i, k := range s.order {
		if k == key {
			copy(s.order[i:], s.order[i+1:])
			s.order[len(s.order)-1] = key
			return
		}
	}
}
