package importance

import (
	"bytes"
	"fmt"
	"sync"

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
	if err := validateKNNShapleyRows(k, ix.Train.Len(), ix.Queries.Len()); err != nil {
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
// B×w float64 buffer of at most this size, w being the width the kernel
// writes: the index's rows, or its root's on the root-order walk. B is
// raised to the worker count when w is so large that fewer points fit,
// so memory is O(B·w) however many validation points there are.
const kernelBlockBytes = 1 << 20

// knnShapleyKernel is the one closed-form kNN-Shapley loop behind every
// entry point. It scores the training rows of ix (labels trainY, one per
// row) against its queries (labels validY, one per query), reading each
// query's neighbor order once. prog, when non-nil, is ticked as
// validation points complete.
//
// The recurrence is branch-free and division-free: step[j] is the
// textbook per-rank factor 1/K·min(K,j+1)/(j+1), evaluated once per call
// in the textbook's left-to-right order, and each rank adds
// (match[cur] − match[prev])·step[j], where match is 1 for a row with
// the point's label and 0 otherwise. The output is Float64bits-identical
// to the textbook form (±1)/K·min/rank: a product by ±1 is exact and
// sign-symmetric, a product by +0 is +0, and no partial sum is ever −0.
//
// An index with its own order table (a root, or a derived index that
// built one) is walked in its own row ids against one 0/1 float vector
// per validation label (shapleyPoint, which adds). A derived index
// without a table is walked straight over its root's order, in the
// root's row ids (ml.NeighborIndex.Walk), against one code table per
// validation label that also marks the tombstones (shapleyWalkRow,
// which writes): its sums accumulate over the root's rows and are
// gathered through physOf at the end, and no per-point copy of the
// survivors' order is made. Roots keep the float loop, the faster of
// the two over an order without tombstones (DESIGN.md §7 has the
// measurements).
//
// Every score entry receives its validation points' contributions in
// validation order, the serial summation order, for any worker count.
// With one worker the loop runs inline: a root's points add straight
// into the sums, and a walked point writes one row that is then added
// into them. Otherwise blocks of points are computed in parallel into an
// O(B·w) buffer, each point filling its own row (a root's is cleared
// first), then added into the sums serially, in order. Writing a row
// gives the bits that adding to a cleared one would: every live row
// appears exactly once in an order, and 0 + x = x for every x but −0,
// which no partial sum is. The returned stats sum the blocks' pool runs;
// Wall is zero when the loop ran inline.
func knnShapleyKernel(k int, ix *ml.NeighborIndex, trainY, validY []int, workers int, prog *obs.Progress) (Scores, *ParallelStats) {
	n, nv := len(trainY), len(validY)
	// step[n-1] is shapleyWalkRow's spare: only a tombstone between the
	// two farthest live rows reads it, and multiplies it by zero
	step := make([]float64, n)
	for j := range step {
		rank := float64(j + 1)
		step[j] = 1 / float64(k) * minF(float64(k), rank) / rank
	}
	root, physOf := ix.Walk()
	nb := root.Train.Len()
	var (
		match [][]float64
		codes [][]uint8
	)
	if physOf == nil {
		match = matchVectors(trainY, validY)
	} else {
		codes = codeTables(trainY, validY, physOf, nb)
	}
	sums := make(Scores, nb)
	resolved := par.Workers(workers, nv)
	stats := &ParallelStats{RequestedWorkers: workers, Workers: resolved, Points: nv, PerWorker: make([]int, resolved)}
	if resolved == 1 {
		var row []float64 // the walk's one block row
		if physOf != nil {
			row = make([]float64, nb)
		}
		for v := 0; v < nv; v++ {
			if physOf == nil {
				shapleyPoint(sums, root.Order(v), match[v], step)
			} else {
				shapleyWalkRow(row, root.Order(v), codes[v], step)
				addRows(sums, row)
			}
			if prog != nil {
				prog.Tick(1)
			}
		}
		stats.PerWorker[0] = nv
	} else {
		block := kernelBlockBytes / (8 * nb)
		if block < resolved {
			block = resolved
		}
		if block > nv {
			block = nv
		}
		buf := make([]float64, block*nb)
		// copies assigned once, so the closure below captures them by
		// value; capturing the variables set above would move both to
		// the heap on every call
		match, codes := match, codes
		for lo := 0; lo < nv; lo += block {
			hi := lo + block
			if hi > nv {
				hi = nv
			}
			st := par.For("importance.knnshapley", resolved, hi-lo, func(_, b int) {
				row := buf[b*nb : (b+1)*nb]
				if physOf == nil {
					clear(row)
					shapleyPoint(row, root.Order(lo+b), match[lo+b], step)
				} else {
					shapleyWalkRow(row, root.Order(lo+b), codes[lo+b], step)
				}
			})
			addRows(sums, buf[:(hi-lo)*nb])
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
	if physOf == nil {
		for i := range sums {
			sums[i] *= inv
		}
		return sums, stats
	}
	scores := make(Scores, n)
	for l, p := range physOf {
		scores[l] = sums[p] * inv
	}
	return scores, stats
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

// codeTables returns, for each validation point, shapleyWalkRow's code
// table over a root's nb rows: 2 for a tombstone, and for the root row
// physOf[l] of live row l, 1 when trainY[l] is the point's label and 0
// otherwise. At one byte a row it is an eighth of a match vector, so the
// walk's scattered reads of it stay in L1. Points with equal labels
// share one table, so there is one per distinct label.
func codeTables(trainY, validY, physOf []int, nb int) [][]uint8 {
	byLabel := map[int][]uint8{}
	out := make([][]uint8, len(validY))
	for v, y := range validY {
		c, ok := byLabel[y]
		if !ok {
			c = bytes.Repeat([]uint8{2}, nb)
			for l, p := range physOf {
				var m uint8 // a conditional move, not a branch on the label
				if trainY[l] == y {
					m = 1
				}
				c[p] = m
			}
			byLabel[y] = c
		}
		out[v] = c
	}
	return out
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

// shapleyWalkRow is the recurrence over a root's order, for a derived
// index without its own: order and dst are in the root's row ids, and
// code[p] is 1 for a live row with the point's label, 0 for a live row
// with another and 2 for a tombstone. step holds one factor per live
// rank, len(step) of them with the spare. Each rank's value is written
// into dst, not added, so a block row needs no clearing. The tombstones
// beyond the farthest live row are skipped, and their slots keep what
// they held; after that a tombstone costs no branch: its mask keeps the
// rank r, masks the label difference to 0, so acc adds an exact +0, and
// its value lands in its own slot, which no caller reads. The previous
// label is an integer, so acc's add is the only float chain between
// iterations.
func shapleyWalkRow(dst []float64, order []int32, code []uint8, step []float64) {
	j := len(order) - 1
	for code[uint32(order[j])] == 2 {
		j--
	}
	r := len(step) - 1
	i := uint32(order[j])
	prev := int(code[i])
	acc := float64(prev) / float64(len(step))
	dst[i] = acc
	for j--; j >= 0; j-- {
		i = uint32(order[j])
		c := int(code[i])
		live := c>>1 - 1 // -1 on a live row, 0 on a tombstone
		d := (c - prev) & live
		prev += d
		r += live
		acc += float64(d) * step[r]
		dst[i] = acc
	}
}

func validateKNNShapley(k int, train, valid *ml.Dataset) error {
	if err := validateKNNShapleyRows(k, train.Len(), valid.Len()); err != nil {
		return err
	}
	if train.X == nil || valid.X == nil {
		// such as a derived index's Train, whose rows TrainSet gathers
		return nderr.Empty("importance: kNN-Shapley train and valid sets need features")
	}
	if train.Dim() != valid.Dim() {
		return fmt.Errorf("importance: dimension mismatch %d vs %d", train.Dim(), valid.Dim())
	}
	return nil
}

// validateKNNShapleyRows checks k and the training and validation row
// counts: all there is to check on an index, whose dimensions
// NewNeighborIndex matched and whose Train, when derived, has no
// features.
func validateKNNShapleyRows(k, n, nv int) error {
	if k < 1 {
		return fmt.Errorf("importance: kNN-Shapley requires K >= 1, got %d", k)
	}
	if n == 0 || nv == 0 {
		return fmt.Errorf("importance: kNN-Shapley needs non-empty train (%d) and valid (%d)", n, nv)
	}
	return nil
}

// KNNUtility returns the utility function that KNNShapley's closed form
// scores: mean over validation points of the fraction of correct votes
// among the K nearest neighbors within the subset. Exposed so tests and
// benchmarks can cross-check the closed form against generic estimators.
// The first call builds a neighbor index over (train, valid) at one
// worker, and every coalition is ranked from its order: a validation
// point's neighbors within a subset are the subset's members in the order
// of the full training set, the (squared distance, index) order of the
// closed form, on the same distances. A failed index build (non-finite
// features, a dimension mismatch) is returned by every non-empty call.
// Safe for concurrent use.
func KNNUtility(k int, train, valid *ml.Dataset) Utility {
	var (
		once sync.Once
		ix   *ml.NeighborIndex
		err  error
	)
	return func(subset []int) (float64, error) {
		if len(subset) == 0 {
			return 0, nil
		}
		once.Do(func() { ix, err = ml.NewNeighborIndex(train, valid, 1) })
		if err != nil {
			return 0, err
		}
		in := make([]bool, train.Len())
		for _, i := range subset {
			in[i] = true
		}
		m := min(k, len(subset))
		total := 0.0
		for v := 0; v < valid.Len(); v++ {
			correct, taken := 0, 0
			for _, i := range ix.Order(v) {
				if !in[i] {
					continue
				}
				if train.Y[i] == valid.Y[v] {
					correct++
				}
				if taken++; taken == m {
					break
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
