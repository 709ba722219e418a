// Package par provides the shared bounded worker pool used by the nde
// compute kernels: a chunked, dynamically scheduled parallel-for over an
// index range. It replaces the ad-hoc goroutine pools that used to live in
// individual packages so every hot path shares one scheduling policy and
// one set of observability hooks.
//
// Determinism contract: the pool never merges results itself. A body
// callback must write only to state that is private to its worker or to
// its item index (e.g. out[i] = ...), and callers perform any floating-
// point reduction serially in item order after the loop returns. Under
// that discipline every result is bit-for-bit identical for any worker
// count, including 1.
//
// Observability: when obs is enabled each loop records a par.for span
// (with the loop name, items, resolved worker count and chunk size), sets
// the par_workers gauge, and observes per-worker item counts
// into the par_items_per_worker histogram. When obs is disabled the pool
// adds no instrumentation allocations.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nde/internal/obs"
)

// Stats reports how one parallel loop actually ran.
type Stats struct {
	// Requested is the caller-supplied worker count (<= 0 = auto).
	Requested int
	// Workers is the resolved count actually used: GOMAXPROCS when auto,
	// clamped to the number of items.
	Workers int
	// Items is the loop length.
	Items int
	// PerWorker[w] is the number of items worker w processed; its spread
	// shows pool utilization balance.
	PerWorker []int
	// Wall is the end-to-end time of the loop.
	Wall time.Duration
}

// Workers resolves a requested worker count: <= 0 means GOMAXPROCS, the
// result is clamped to items, and is never below 1.
func Workers(requested, items int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For runs body(worker, i) for every i in [0, items) on a bounded worker
// pool. Scheduling is dynamic over contiguous chunks (items/(workers*8),
// at least 1), so uneven per-item costs still balance. worker is in
// [0, Workers) and identifies the goroutine, letting bodies reuse
// per-worker scratch buffers.
func For(name string, requested, items int, body func(worker, i int)) *Stats {
	workers := Workers(requested, items)
	return loop(name, requested, items, workers, max(items/(workers*chunksPerWorker), 1), body, nil)
}

// chunksPerWorker controls dynamic-scheduling granularity: each worker's
// share is split into this many chunks so stragglers can be stolen.
const chunksPerWorker = 8

// ForErr runs body(worker, i) for every i in [0, items) on the pool and
// collects per-item errors. Every item runs even when an early one fails
// (bodies must already tolerate that for the no-error determinism contract
// to hold); the returned error is the FIRST failing item's error in item
// order, so which error a caller sees does not depend on worker count or
// scheduling.
func ForErr(name string, requested, items int, body func(worker, i int) error) (*Stats, error) {
	errs := make([]error, items)
	st := For(name, requested, items, func(w, i int) {
		errs[i] = body(w, i)
	})
	for _, err := range errs {
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// ForBlocks runs body(worker, lo, hi) over contiguous blocks of [0, items)
// of the given block size (the last block may be shorter), dynamically
// scheduled across the pool. Use it when the body wants to amortize
// per-block setup (cache tiles, scratch buffers) across several items.
func ForBlocks(name string, requested, items, block int, body func(worker, lo, hi int)) *Stats {
	return loop(name, requested, items, Workers(requested, items), max(block, 1), nil, body)
}

// loop is the pool For and ForBlocks share. Its workers take chunks of
// [0, items) of the given size off an atomic counter, and each chunk runs
// as one call of blocks, or as one call of each per item in it; exactly
// one of the two is non-nil. One worker runs the chunks inline, with no
// goroutine and no atomic.
func loop(name string, requested, items, workers, chunk int, each func(worker, i int), blocks func(worker, lo, hi int)) *Stats {
	st := &Stats{Requested: requested, Items: items, Workers: workers, PerWorker: make([]int, workers)}
	var sp *obs.Span
	if obs.Enabled() {
		sp = obs.StartSpan("par.for")
		sp.SetStr("name", name).
			SetInt("items", int64(items)).
			SetInt("workers", int64(workers)).
			SetInt("block", int64(chunk))
		obs.SetGauge("par_workers", float64(workers))
	}
	start := time.Now()
	if workers == 1 {
		for lo := 0; lo < items; lo += chunk {
			runChunk(each, blocks, 0, lo, min(lo+chunk, items))
		}
		st.PerWorker[0] = items
	} else if items > 0 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			// w is per-iteration, so capturing it costs the one closure;
			// passing it as an argument would allocate a wrapper too
			go func() {
				defer wg.Done()
				for {
					lo := int(next.Add(int64(chunk))) - chunk
					if lo >= items {
						return
					}
					hi := min(lo+chunk, items)
					runChunk(each, blocks, w, lo, hi)
					st.PerWorker[w] += hi - lo // w-private slot; published by wg.Wait
				}
			}()
		}
		wg.Wait()
	}
	st.Wall = time.Since(start)
	if obs.Enabled() {
		for _, cnt := range st.PerWorker {
			obs.ObserveWith("par_items_per_worker", float64(cnt), obs.ExpBuckets(1, 2, 13))
		}
	}
	if sp != nil {
		sp.End()
	}
	return st
}

// runChunk runs [lo, hi) as loop's worker w: one blocks call, or one each
// call per item.
func runChunk(each func(worker, i int), blocks func(worker, lo, hi int), w, lo, hi int) {
	if blocks != nil {
		blocks(w, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		each(w, i)
	}
}
