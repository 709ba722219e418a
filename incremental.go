package nde

import (
	"fmt"
	"sync"
	"time"

	"nde/internal/importance"
	"nde/internal/ml"
	"nde/internal/nderr"
)

// DebugSession is the interactive flag → unlearn → recompute loop as one
// stateful object: it holds the current survivors' labels,
// their kNN-Shapley scores against a fixed validation set, and the
// neighbor index those scores came from, whose root holds the features.
// Each RemoveRows call DERIVES the next index from the current one
// (ml.NeighborIndex.RemoveRows: tombstones over the root's neighbor order
// table, whose walk also gives the child its top-k when Accuracy asks; no
// fresh distance kernel, no copy of the features) and re-evaluates the Shapley closed form in one O(n)
// pass over the root's neighbor order per validation point — so
// iterating "drop the worst row, look again" is interactive even at
// tens of thousands of rows, while staying Float64bits-identical to
// recomputing everything from scratch. Only the
// opening index comes from the facade's index store; derived indexes are
// the session's own and are not registered there.
//
// Safe for concurrent use; mutations serialize on an internal mutex.
type DebugSession struct {
	mu      sync.Mutex
	k       int
	workers int
	y       []int // current survivors' labels, the caller's revision
	valid   *Dataset
	orig    []int // current row -> row id in the original training set
	scores  Scores
	ix      *ml.NeighborIndex
}

// NewDebugSession scores the full training set and opens the session.
// k is the kNN-Shapley neighborhood size; workers bounds the pool
// (<= 0 = automatic).
func NewDebugSession(train, valid *Dataset, k, workers int) (_ *DebugSession, err error) {
	defer recordOp("NewDebugSession", time.Now(), datasetRows(train), workers, &err)
	if err := checkTrainable("train", train); err != nil {
		return nil, err
	}
	if err := checkPair("train", train, "valid", valid); err != nil {
		return nil, err
	}
	if err := checkK("DebugSession", k, train.Len()); err != nil {
		return nil, err
	}
	parent, err := storedIndex(train, valid, workers)
	if err != nil {
		return nil, err
	}
	scores, keep, y, ix, err := importance.KNNShapleyDerive(k, parent, train.Y, valid.Y, nil, workers)
	if err != nil {
		return nil, err
	}
	return &DebugSession{
		k: k, workers: workers,
		y: y, valid: valid,
		orig: keep, scores: scores, ix: ix,
	}, nil
}

// Len returns the number of surviving training rows.
func (s *DebugSession) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.y)
}

// Scores returns a copy of the current kNN-Shapley scores, one per
// surviving row (aligned with OriginalIDs).
func (s *DebugSession) Scores() Scores {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(Scores(nil), s.scores...)
}

// OriginalIDs maps each surviving row to its id in the training set the
// session was opened with.
func (s *DebugSession) OriginalIDs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.orig...)
}

// RemoveRows drops the given rows — indices into the CURRENT surviving
// set, duplicates tolerated — and returns the freshly recomputed scores
// of the survivors. The update is the delta path end to end: the next
// index derives from the one the session holds, so the chain never
// computes a distance, sorts, fingerprints the training set, or touches
// the facade's index store. The call is atomic: on error the session is
// unchanged.
func (s *DebugSession) RemoveRows(rows []int) (_ Scores, err error) {
	defer recordOp("DebugSessionRemoveRows", time.Now(), len(rows), s.workers, &err)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(rows) == 0 {
		return append(Scores(nil), s.scores...), nil
	}
	scores, keep, y, ix, err := importance.KNNShapleyDerive(s.k, s.ix, s.y, s.valid.Y, rows, s.workers)
	if err != nil {
		return nil, fmt.Errorf("nde: debug session removal: %w", err)
	}
	if s.k > len(keep) {
		// keep the session invariant k <= Len() for the NEXT round
		return nil, fmt.Errorf("nde: removal leaves %d rows for k=%d: %w", len(keep), s.k, nderr.ErrBadK)
	}
	// Labels stay the session's (a stored index may carry another label
	// revision): y is s.y at keep, which the derivation built to score
	// with and hands over, as it hands over keep, which becomes the
	// survivors' original ids in place.
	for o, i := range keep {
		keep[o] = s.orig[i]
	}
	s.y = y
	s.orig = keep
	s.scores = scores
	s.ix = ix
	return append(Scores(nil), scores...), nil
}

// Accuracy evaluates the default kNN vote of the surviving training set on
// the session's validation set, via the incrementally maintained index —
// bit-identical to rebuilding an index over the survivors.
func (s *DebugSession) Accuracy() (_ float64, err error) {
	defer recordOp("DebugSessionAccuracy", time.Now(), 0, s.workers, &err)
	s.mu.Lock()
	defer s.mu.Unlock()
	preds, err := s.ix.PredictBatchLabels(s.k, s.y)
	if err != nil {
		return 0, fmt.Errorf("nde: debug session accuracy: %w", err)
	}
	return ml.Accuracy(s.valid.Y, preds), nil
}
