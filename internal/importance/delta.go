package importance

import (
	"fmt"

	"nde/internal/ml"
	"nde/internal/nderr"
	"nde/internal/obs"
)

// KNNShapleyDelta recomputes kNN-Shapley after removing training rows: it
// builds the neighbor index of the ORIGINAL training set and derives and
// scores the reduced index with KNNShapleyDerive. A caller that already
// holds the parent index calls KNNShapleyDerive directly and skips the
// build.
//
// It returns the reduced scores (one per surviving row, in surviving
// order), the surviving original row ids, and the derived index, which a
// caller can keep to chain further removals on top.
//
// Determinism: the result is Float64bits-identical to
// KNNShapley(k, train.Subset(keep), valid) — the full-rebuild oracle —
// for every worker count.
func KNNShapleyDelta(k int, train, valid *ml.Dataset, remove []int, workers int) (Scores, []int, *ml.NeighborIndex, error) {
	if err := validateKNNShapley(k, train, valid); err != nil {
		return nil, nil, nil, err
	}
	parent, err := ml.NewNeighborIndex(train, valid, workers)
	if err != nil {
		return nil, nil, nil, err
	}
	return KNNShapleyDerive(k, parent, train.Y, valid.Y, remove, workers)
}

// KNNShapleyDerive removes rows (indices into parent.Train, duplicates
// tolerated) from parent and scores the survivors: the child index comes
// from ml.NeighborIndex.RemoveRows (tombstones over the root's order
// table, no fresh kernel, no argsort beyond the root's own, no feature
// copy: the child's features are its root's rows, read through
// TrainSet) and the closed form runs over the root's neighbor order,
// stepping over the child's tombstones. trainY labels parent's training
// rows and validY its queries; the indexes' own labels are never read,
// nor are their features. An empty removal scores parent itself. The
// child is not registered anywhere, so a caller that holds on to it,
// such as nde.DebugSession, chains derivations without fingerprinting
// or touching an index store.
//
// It returns the survivors' scores, their row ids in parent, and the
// child index. The scores are Float64bits-identical to KNNShapley over
// the surviving rows. The closed form is re-evaluated in full per
// validation point rather than patched from the highest changed neighbor
// rank downward, because that algebraic prefix-offset shortcut (ranks
// below the first removed neighbor change by a constant) reassociates
// float additions and drifts from the oracle by ulps (DESIGN §11).
func KNNShapleyDerive(k int, parent *ml.NeighborIndex, trainY, validY, remove []int, workers int) (Scores, []int, *ml.NeighborIndex, error) {
	n := parent.Train.Len()
	if err := validateKNNShapleyRows(k, n, parent.Queries.Len()); err != nil {
		return nil, nil, nil, err
	}
	if len(trainY) != n {
		return nil, nil, nil, nderr.Mismatch("importance: delta train labels", n, len(trainY))
	}
	if nq := parent.Queries.Len(); len(validY) != nq {
		return nil, nil, nil, nderr.Mismatch("importance: delta validation labels", nq, len(validY))
	}
	gone := make([]bool, n)
	for _, r := range remove {
		if r < 0 || r >= n {
			return nil, nil, nil, fmt.Errorf("importance: delta removal row %d outside [0,%d): %w", r, n, nderr.ErrDegenerateInput)
		}
		gone[r] = true
	}
	keep := make([]int, 0, n)
	for i, g := range gone {
		if !g {
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		return nil, nil, nil, fmt.Errorf("importance: delta removal would empty the training set: %w", nderr.ErrEmptyInput)
	}

	sp := obs.StartSpan("importance.knnshapley_delta")
	sp.SetInt("k", int64(k)).SetInt("train", int64(n)).
		SetInt("valid", int64(len(validY))).SetInt("removed", int64(n-len(keep)))
	defer sp.End()

	child := parent
	if len(keep) < n {
		var err error
		if child, err = parent.RemoveRows(remove); err != nil {
			return nil, nil, nil, err
		}
	}
	// survivor labels from the CALLER: a stored parent may carry another
	// label revision
	reducedY := make([]int, len(keep))
	for o, i := range keep {
		reducedY[o] = trainY[i]
	}
	scores, _ := knnShapleyKernel(k, child, reducedY, validY, workers, nil)
	return scores, keep, child, nil
}
