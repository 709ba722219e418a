package importance

import (
	"fmt"
	"sort"

	"nde/internal/ml"
	"nde/internal/nderr"
	"nde/internal/obs"
	"nde/internal/par"
)

// KNNShapley computes exact Shapley values for the k-nearest-neighbor
// utility in O(n log n) per validation point (Jia et al., VLDB 2019).
//
// For one validation point (x, y) the utility of a training subset S is
// U(S) = (1/K) Σ_{j=1..min(K,|S|)} 1[label of j-th nearest point in S = y],
// i.e. the fraction of the K nearest neighbors that vote correctly. The
// Shapley values of this utility have the closed-form recurrence
//
//	s_(N)  = 1[y_(N) = y] / N
//	s_(j)  = s_(j+1) + (1[y_(j)=y] − 1[y_(j+1)=y]) / K · min(K, j) / j
//
// where (j) indexes training points sorted by ascending distance to x.
// The total score of a training point is its sum over validation points,
// normalized by the number of validation points.
//
// Neighbor orders come from a NeighborIndex this call builds: its order
// table, sorted block by block from the batched linalg kernel's
// valid×train squared distances. A caller that scores one geometry
// repeatedly holds the index (ml.IndexStore) and passes it to
// KNNShapleyWithIndex, which is bit-for-bit identical to this function, as
// is KNNShapleyParallel.
func KNNShapley(k int, train, valid *ml.Dataset) (Scores, error) {
	if err := validateKNNShapley(k, train, valid); err != nil {
		return nil, err
	}
	sp := obs.StartSpan("importance.knnshapley")
	sp.SetInt("k", int64(k)).SetInt("train", int64(train.Len())).SetInt("valid", int64(valid.Len()))
	defer sp.End()
	prog := obs.NewProgress("knnshapley", valid.Len())
	defer prog.Done()

	ix, err := ml.NewNeighborIndex(train, valid, 1)
	if err != nil {
		return nil, err
	}
	scores, _ := knnShapleyKernel(k, ix, train.Y, valid.Y, 1, prog)
	return scores, nil
}

// ResetNeighborIndexCache does nothing. The package holds no index store:
// an owner of one (each serve.Server, and the nde facade, whose own
// ResetNeighborIndexCache empties its store) drops it itself.
//
// Deprecated: KNNShapley, KNNShapleyParallel and KNNShapleyDelta build
// their index on every call, so there is nothing to reset.
func ResetNeighborIndexCache() {}

// KNNShapleyWithIndex computes the same closed form from a caller-provided
// NeighborIndex whose Train/Queries pair is the (train, valid) geometry of
// interest, reusing its cached neighbor orders, on workers with
// KNNShapleyParallel's telemetry. Labels come only from trainY (one per
// training row) and validY (one per query), never from the index, which
// an ml.IndexStore may have built under another label revision; labels
// of the wrong length return ErrShapeMismatch. On the index and labels
// KNNShapley uses, the result is bit-for-bit identical to KNNShapley.
func KNNShapleyWithIndex(k int, ix *ml.NeighborIndex, trainY, validY []int, workers int) (Scores, error) {
	if err := validateKNNShapley(k, ix.Train, ix.Queries); err != nil {
		return nil, err
	}
	if len(trainY) != ix.Train.Len() {
		return nil, nderr.Mismatch("importance: kNN-Shapley train labels", ix.Train.Len(), len(trainY))
	}
	if len(validY) != ix.Queries.Len() {
		return nil, nderr.Mismatch("importance: kNN-Shapley validation labels", ix.Queries.Len(), len(validY))
	}
	scores, _ := knnShapleyParallel(k, ix, trainY, validY, workers)
	return scores, nil
}

// kernelBlockBytes bounds the scratch of the kernel's parallel path: a
// block of B validation points writes its contribution vectors into one
// B×n float64 buffer of at most this size (B is raised to the worker
// count when n is so large that fewer points fit), so memory is O(B·n)
// however many validation points there are.
const kernelBlockBytes = 1 << 20

// knnShapleyKernel is the one closed-form kNN-Shapley loop behind every
// entry point. It scores the training rows of ix (labels trainY, one per
// row) against its queries (labels validY, one per query), reading each
// query's neighbor order from the index. prog, when non-nil, is ticked as
// validation points complete.
//
// The recurrence is branch-free and division-free: step[j] is the
// textbook per-rank factor 1/K·min(K,j+1)/(j+1), evaluated once per call
// in the textbook's left-to-right order, and each rank adds
// (match[cur] − match[prev])·step[j], where match is a 0/1 vector per
// validation label. The output is Float64bits-identical to the textbook
// form (±1)/K·min/rank: a product by ±1 is exact and sign-symmetric, a
// product by +0 is +0, and no partial sum is ever −0.
//
// Every score entry receives its validation points' contributions in
// validation order, the serial summation order, for any worker count.
// With one worker the loop runs inline and adds straight into the
// scores. Otherwise blocks of points are computed in parallel into an
// O(B·n) buffer, then added into the scores serially, in order. The
// returned stats sum the blocks' pool runs; Wall is zero when the loop
// ran inline.
func knnShapleyKernel(k int, ix *ml.NeighborIndex, trainY, validY []int, workers int, prog *obs.Progress) (Scores, *ParallelStats) {
	n, nv := len(trainY), len(validY)
	step := make([]float64, n-1)
	for j := range step {
		rank := float64(j + 1)
		step[j] = 1 / float64(k) * minF(float64(k), rank) / rank
	}
	match := matchVectors(trainY, validY)
	scores := make(Scores, n)
	resolved := par.Workers(workers, nv)
	stats := &ParallelStats{RequestedWorkers: workers, Workers: resolved, Points: nv, PerWorker: make([]int, resolved)}
	orders := make([][]int32, resolved) // per-worker scratch for OrderInto
	if resolved == 1 {
		orders[0] = make([]int32, n)
		for v := 0; v < nv; v++ {
			shapleyPoint(scores, ix.OrderInto(v, orders[0]), match[v], step)
			if prog != nil {
				prog.Tick(1)
			}
		}
		stats.PerWorker[0] = nv
	} else {
		block := kernelBlockBytes / (8 * n)
		if block < resolved {
			block = resolved
		}
		if block > nv {
			block = nv
		}
		buf := make([]float64, block*n)
		for lo := 0; lo < nv; lo += block {
			hi := lo + block
			if hi > nv {
				hi = nv
			}
			st := par.For("importance.knnshapley", resolved, hi-lo, func(w, b int) {
				if orders[w] == nil {
					orders[w] = make([]int32, n)
				}
				row := buf[b*n : (b+1)*n]
				clear(row)
				shapleyPoint(row, ix.OrderInto(lo+b, orders[w]), match[lo+b], step)
			})
			addRows(scores, buf[:(hi-lo)*n])
			for w, cnt := range st.PerWorker {
				stats.PerWorker[w] += cnt
			}
			stats.Wall += st.Wall
			if prog != nil {
				prog.Tick(hi - lo)
			}
		}
	}
	inv := 1 / float64(nv)
	for i := range scores {
		scores[i] *= inv
	}
	return scores, stats
}

// addRows adds the len(rows)/len(dst) consecutive rows of rows into dst,
// first row first: dst[i] + r0[i] + r1[i] + ... associates left to right,
// so each entry is summed in row order. Taking four rows per pass keeps
// the running sum in a register between rows.
func addRows(dst, rows []float64) {
	n := len(dst)
	for len(rows) >= 4*n {
		r0, r1, r2, r3 := rows[:n], rows[n:2*n], rows[2*n:3*n], rows[3*n:4*n]
		for i := range dst {
			dst[i] = dst[i] + r0[i] + r1[i] + r2[i] + r3[i]
		}
		rows = rows[4*n:]
	}
	for ; len(rows) >= n; rows = rows[n:] {
		r := rows[:n]
		for i := range dst {
			dst[i] += r[i]
		}
	}
}

// shapleyPoint evaluates the recurrence for one validation point, from
// the farthest neighbor to the nearest, and adds each rank's value into
// dst at that neighbor's training id. match marks the training rows that
// share the point's label; step holds the per-rank factors. Ids are
// non-negative, so each is read as uint32: a zero-extending load, one
// instruction, where a sign-extended int32 index takes two.
func shapleyPoint(dst []float64, order []int32, match, step []float64) {
	n := len(order)
	step = step[:n-1]
	i := uint32(order[n-1])
	prev := match[i]
	acc := prev / float64(n)
	dst[i] += acc
	for j := n - 2; j >= 0; j-- {
		i = uint32(order[j])
		cur := match[i]
		acc += (cur - prev) * step[j]
		dst[i] += acc
		prev = cur
	}
}

// matchVectors returns, for each validation point, the 0/1 vector over
// training rows marking those with the point's label. Points with equal
// labels share one vector, so there is one per distinct label.
func matchVectors(trainY, validY []int) [][]float64 {
	byLabel := map[int][]float64{}
	out := make([][]float64, len(validY))
	for v, y := range validY {
		m, ok := byLabel[y]
		if !ok {
			m = make([]float64, len(trainY))
			for i, t := range trainY {
				if t == y {
					m[i] = 1
				}
			}
			byLabel[y] = m
		}
		out[v] = m
	}
	return out
}

func validateKNNShapley(k int, train, valid *ml.Dataset) error {
	if k < 1 {
		return fmt.Errorf("importance: kNN-Shapley requires K >= 1, got %d", k)
	}
	if train.Len() == 0 || valid.Len() == 0 {
		return fmt.Errorf("importance: kNN-Shapley needs non-empty train (%d) and valid (%d)", train.Len(), valid.Len())
	}
	if train.Dim() != valid.Dim() {
		return fmt.Errorf("importance: dimension mismatch %d vs %d", train.Dim(), valid.Dim())
	}
	return nil
}

// KNNUtility returns the utility function that KNNShapley's closed form
// scores: mean over validation points of the fraction of correct votes
// among the K nearest neighbors within the subset. Exposed so tests and
// benchmarks can cross-check the closed form against generic estimators.
// Ranking uses squared distances with index tie-breaks — the same total
// order as the closed form and the NeighborIndex.
func KNNUtility(k int, train, valid *ml.Dataset) Utility {
	return func(subset []int) (float64, error) {
		if len(subset) == 0 {
			return 0, nil
		}
		total := 0.0
		type distIdx struct {
			d float64
			i int
		}
		for v := 0; v < valid.Len(); v++ {
			x, y := valid.Row(v), valid.Y[v]
			di := make([]distIdx, len(subset))
			for o, i := range subset {
				di[o] = distIdx{ml.SquaredDistance(train.Row(i), x), i}
			}
			sort.SliceStable(di, func(a, b int) bool {
				if di[a].d != di[b].d {
					return di[a].d < di[b].d
				}
				return di[a].i < di[b].i
			})
			m := k
			if m > len(di) {
				m = len(di)
			}
			correct := 0
			for j := 0; j < m; j++ {
				if train.Y[di[j].i] == y {
					correct++
				}
			}
			total += float64(correct) / float64(k)
		}
		return total / float64(valid.Len()), nil
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
