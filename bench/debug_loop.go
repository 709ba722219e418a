package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"nde"
	"nde/internal/importance"
	"nde/internal/ml"
)

// debugLoop is the interactive flag → remove → rescore loop on the
// in-process facade with one caller: each step removes the lowest-scored
// survivors and reads the accuracy. Every step takes the delta path
// (RemoveRows, the merged walk, the full recurrence, fingerprints); it
// never runs a fresh kernel or HTTP. Enough steps run to cross the
// index's dead·4 > phys compaction once.
type debugLoop struct {
	s      *split
	ops    int
	sess   *nde.DebugSession
	scores nde.Scores
	snaps  []debugSnap
}

// debugSnap is the session state after a checked step.
type debugSnap struct {
	orig   []int
	scores []float64
	acc    float64
}

const (
	debugTrainRows     = 20000
	debugRemovePerStep = 8
	debugCheckEvery    = 100
)

// debugMaxSteps is how many steps a train set of n rows supports: the
// loop removes at most half of it, so every step measures an index of
// the stated size's order rather than a nearly empty one.
func debugMaxSteps(n int) int { return n / 2 / debugRemovePerStep }

func newDebugLoop(seed int64, ops int, tiny bool) (system, error) {
	n, nValid := debugTrainRows, 64
	if tiny {
		n, nValid = 500, 16
	}
	if ops > debugMaxSteps(n) {
		return nil, fmt.Errorf("debug-loop: %d steps remove more than half of %d rows", ops, n)
	}
	s, err := genSplit(subSeed(seed, "debug-loop", 0), n, nValid, 0, 0.1)
	if err != nil {
		return nil, err
	}
	return &debugLoop{s: s, ops: ops}, nil
}

func (w *debugLoop) inputHash() string {
	h := fnv.New64a()
	hashDataset(h, w.s.train)
	hashDataset(h, w.s.valid)
	return strconv.FormatUint(h.Sum64(), 16)
}

func (w *debugLoop) setup() (err error) {
	if w.sess, err = nde.NewDebugSession(w.s.train, w.s.valid, 5, 0); err != nil {
		return err
	}
	w.scores = w.sess.Scores()
	return nil
}

func (w *debugLoop) close() {}

func (w *debugLoop) op(i int) error {
	var err error
	if w.scores, err = w.sess.RemoveRows(w.scores.BottomK(debugRemovePerStep)); err != nil {
		return err
	}
	acc, err := w.sess.Accuracy()
	if err != nil {
		return err
	}
	if i%debugCheckEvery == 0 || i == w.ops-1 {
		w.snaps = append(w.snaps, debugSnap{orig: w.sess.OriginalIDs(), scores: w.scores, acc: acc})
	}
	return nil
}

// check recomputes each snapshot from scratch: kNN-Shapley over the
// surviving rows, with the shared index cache emptied so the oracle
// rebuilds its geometry, and the kNN accuracy of a fresh index.
func (w *debugLoop) check() int {
	bad := 0
	for _, snap := range w.snaps {
		sub := w.s.train.Subset(snap.orig)
		importance.ResetNeighborIndexCache()
		want, err := importance.KNNShapley(5, sub, w.s.valid)
		if err != nil || !bitsEqual(snap.scores, want) {
			bad++
			continue
		}
		ix, err := ml.NewNeighborIndex(sub, w.s.valid, 1)
		if err != nil || math.Float64bits(ml.Accuracy(w.s.valid.Y, ix.PredictBatch(5))) != math.Float64bits(snap.acc) {
			bad++
		}
	}
	return bad
}

func (w *debugLoop) snapshotCounters() error { return nil }

// counters: the facade runs with obs off, as a library caller has it, so
// the stores count nothing.
func (w *debugLoop) counters() (map[string]float64, error) { return nil, nil }

// trace replays the steps from a fresh session: the steps before from
// untraced to reach the same state, then reps traced steps. A second
// fresh session reaches the same state again and, before each of those
// steps, times the calls inside its removal and accuracy read on the
// step's own inputs: the delta rescore, and within it fingerprinting,
// deriving the child index and its merged neighbor walk; and the child's
// batch prediction. Then the index build of set-up (NewDebugSession
// builds the root index), and the index build at one and two workers.
func (w *debugLoop) trace(t *tracer, from, reps int) error {
	if err := w.replayTo(from); err != nil {
		return err
	}
	for i := from; i < from+reps; i++ {
		var rows []int
		err := t.op(i,
			step{"importance.bottomk", func() error { rows = w.scores.BottomK(debugRemovePerStep); return nil }},
			step{"nde.session_remove", func() (err error) { w.scores, err = w.sess.RemoveRows(rows); return err }},
			step{"nde.session_accuracy", func() error { _, err := w.sess.Accuracy(); return err }})
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	if err := w.replayTo(from); err != nil {
		return err
	}
	for i := from; i < from+reps; i++ {
		cur := w.s.train.Subset(w.sess.OriginalIDs())
		if err := w.traceStep(t, cur, w.scores.BottomK(debugRemovePerStep)); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		if err := w.op(i); err != nil {
			return err
		}
	}
	if err := traceSetupIndex(t, []*split{w.s}); err != nil {
		return err
	}
	return traceParallel(t, w.s, false)
}

// replayTo opens a fresh session and runs its first n steps untraced.
func (w *debugLoop) replayTo(n int) error {
	if err := w.setup(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := w.op(i); err != nil {
			return err
		}
	}
	return nil
}

// traceStep times the layer calls of one step that removes rows from the
// survivors cur.
func (w *debugLoop) traceStep(t *tracer, cur *ml.Dataset, rows []int) error {
	// Untimed: the step's parent index, which the session left cached.
	_, _, parent, err := importance.KNNShapleyDelta(5, cur, w.s.valid, nil, 0)
	if err != nil {
		return err
	}
	var child *ml.NeighborIndex
	return t.calls(
		step{"importance.delta", func() error { _, _, _, err := importance.KNNShapleyDelta(5, cur, w.s.valid, rows, 0); return err }},
		step{"linalg.fingerprint", func() error { cur.X.Fingerprint(); return nil }},
		step{"ml.remove_rows", func() (err error) { child, err = parent.RemoveRows(rows); return err }},
		step{"ml.delta_walk", func() error { child.Order(0); return nil }},
		step{"ml.predict_batch", func() error { _, err := child.PredictBatchLabels(5, child.Train.Y); return err }})
}
