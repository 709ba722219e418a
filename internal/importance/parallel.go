package importance

import (
	"time"

	"nde/internal/ml"
	"nde/internal/obs"
	"nde/internal/par"
)

// ParallelStats reports how a parallel importance computation actually
// ran. It surfaces the resolved worker count — previously invisible when
// the requested count was 0 (auto) or clamped to the number of validation
// points — so callers and tests can assert on it.
type ParallelStats struct {
	// RequestedWorkers is the caller-supplied worker count (<= 0 = auto).
	RequestedWorkers int
	// Workers is the resolved count actually used: GOMAXPROCS when auto,
	// then clamped to the number of validation points.
	Workers int
	// Points is the number of validation points processed.
	Points int
	// PerWorker[w] is the number of validation points worker w processed;
	// its spread shows pool utilization balance.
	PerWorker []int
	// Wall is the end-to-end time of the parallel sections, summed over
	// the kernel's blocks; zero when one worker ran the kernel inline.
	Wall time.Duration
}

// KNNShapleyParallel computes the same exact kNN-Shapley values as
// KNNShapley using the shared worker pool over validation points. Results
// are bit-for-bit deterministic and identical to the sequential function:
// both read neighbor orders from the same shared NeighborIndex and run the
// same kernel, which adds every validation point's contributions into the
// scores in validation-point order, so float summation order never
// depends on scheduling.
func KNNShapleyParallel(k int, train, valid *ml.Dataset, workers int) (Scores, error) {
	scores, _, err := KNNShapleyParallelStats(k, train, valid, workers)
	return scores, err
}

// KNNShapleyParallelStats is KNNShapleyParallel returning ParallelStats
// alongside the scores. The resolved worker count is also exported as the
// importance_knnshapley_workers gauge, and per-worker utilization is
// recorded into the importance_knnshapley_points_per_worker histogram.
func KNNShapleyParallelStats(k int, train, valid *ml.Dataset, workers int) (Scores, *ParallelStats, error) {
	if err := validateKNNShapley(k, train, valid); err != nil {
		return nil, nil, err
	}
	resolved := par.Workers(workers, valid.Len())
	obs.SetGauge("importance_knnshapley_workers", float64(resolved))

	sp := obs.StartSpan("importance.knnshapley_parallel")
	sp.SetInt("k", int64(k)).SetInt("train", int64(train.Len())).
		SetInt("valid", int64(valid.Len())).SetInt("workers", int64(resolved))
	defer sp.End()
	prog := obs.NewProgress("knnshapley_parallel", valid.Len())
	defer prog.Done()

	ix, err := sharedNeighborIndex(train, valid, workers)
	if err != nil {
		return nil, nil, err
	}
	scores, stats := knnShapleyKernel(k, ix, train.Y, valid.Y, workers, prog)
	if obs.Enabled() {
		for _, cnt := range stats.PerWorker {
			obs.ObserveWith("importance_knnshapley_points_per_worker", float64(cnt), obs.ExpBuckets(1, 2, 13))
		}
	}
	return scores, stats, nil
}
