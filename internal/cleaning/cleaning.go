// Package cleaning implements prioritized, iterative data cleaning — the
// tutorial's hands-on loop: rank training examples by a data-importance
// method, hand the most suspicious ones to a cleaning oracle, retrain, and
// measure how model quality recovers as the cleaning budget is spent.
// Comparing strategies' cleaning curves (random vs. noise scores vs.
// Shapley variants) quantifies how much prioritization matters.
package cleaning

import (
	"fmt"
	"math"
	"math/rand"

	"nde/internal/importance"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/nderr"
	"nde/internal/obs"
	"nde/internal/par"
)

// Oracle supplies ground-truth repairs for chosen training rows. In the
// tutorial this stands in for a human annotator or an expensive external
// lookup; implementations must not mutate their input.
type Oracle interface {
	// Clean returns d with the given rows repaired, as a new dataset. The
	// result may share d's slices and feature matrix where it repairs
	// nothing, so neither d nor what it shares may be written.
	Clean(d *ml.Dataset, rows []int) (*ml.Dataset, error)
}

// LabelOracle repairs labels from a hidden ground-truth vector.
type LabelOracle struct {
	Truth []int
}

// Clean replaces the labels of the given rows with the ground truth. Only
// the labels are copied: the result shares d's feature matrix and groups,
// and Clean mutates neither d nor the result afterwards, so a round of a
// cleaning loop keeps its training features by pointer. A negative truth
// label or an out-of-range row is rejected before any label is written.
func (o *LabelOracle) Clean(d *ml.Dataset, rows []int) (*ml.Dataset, error) {
	if len(o.Truth) != d.Len() {
		return nil, fmt.Errorf("cleaning: oracle has %d truths for %d rows", len(o.Truth), d.Len())
	}
	for _, r := range rows {
		if r < 0 || r >= d.Len() {
			return nil, fmt.Errorf("cleaning: row %d out of range [0,%d)", r, d.Len())
		}
		if o.Truth[r] < 0 {
			return nil, fmt.Errorf("cleaning: negative truth label %d at row %d: %w", o.Truth[r], r, nderr.ErrDegenerateInput)
		}
	}
	out := &ml.Dataset{X: d.X, Y: append([]int(nil), d.Y...), Groups: d.Groups}
	for _, r := range rows {
		out.Y[r] = o.Truth[r]
	}
	return out, nil
}

// Strategy produces a cleaning priority order (most suspicious first) for
// the current state of the training data.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Rank returns training row indices, most suspicious first.
	Rank(train, valid *ml.Dataset) ([]int, error)
}

// RandomStrategy cleans rows in a seeded random order — the baseline every
// importance method must beat.
type RandomStrategy struct {
	Seed int64
}

// Name returns "random".
func (s *RandomStrategy) Name() string { return "random" }

// Rank returns a random permutation of the rows.
func (s *RandomStrategy) Rank(train, valid *ml.Dataset) ([]int, error) {
	return rand.New(rand.NewSource(s.Seed)).Perm(train.Len()), nil
}

// KNNShapleyStrategy ranks by ascending kNN-Shapley value, scored at one
// worker. Rounds of a cleaning loop relabel rows but keep the features,
// so with Indexes set every round after the first reads the neighbor
// index the first one stored; without it each round builds its own.
type KNNShapleyStrategy struct {
	K       int            // neighbors (default 5)
	Indexes *ml.IndexStore // where rounds look up their neighbor index; nil builds one per round
}

// Name returns "knn-shapley".
func (s *KNNShapleyStrategy) Name() string { return "knn-shapley" }

// Rank computes kNN-Shapley scores and ranks ascending.
func (s *KNNShapleyStrategy) Rank(train, valid *ml.Dataset) ([]int, error) {
	k := s.K
	if k <= 0 {
		k = 5
	}
	if s.Indexes == nil {
		scores, err := importance.KNNShapley(k, train, valid)
		if err != nil {
			return nil, err
		}
		return scores.RankAscending(), nil
	}
	ix, err := s.Indexes.Index(ml.KeyOf(train, valid), train, valid, 1)
	if err != nil {
		return nil, err
	}
	scores, err := importance.KNNShapleyWithIndex(k, ix, train.Y, valid.Y, 1)
	if err != nil {
		return nil, err
	}
	return scores.RankAscending(), nil
}

// LOOStrategy ranks by ascending leave-one-out importance of a model.
type LOOStrategy struct {
	NewModel func() ml.Classifier // default kNN(5)
}

// Name returns "loo".
func (s *LOOStrategy) Name() string { return "loo" }

// Rank computes LOO scores and ranks ascending.
func (s *LOOStrategy) Rank(train, valid *ml.Dataset) ([]int, error) {
	newModel := s.NewModel
	if newModel == nil {
		newModel = func() ml.Classifier { return ml.NewKNN(5) }
	}
	u := importance.AccuracyUtility(newModel, train, valid)
	scores, err := importance.LeaveOneOut(train.Len(), u)
	if err != nil {
		return nil, err
	}
	return scores.RankAscending(), nil
}

// NoiseStrategy ranks by ascending out-of-fold self-confidence.
type NoiseStrategy struct {
	Seed int64
}

// Name returns "noise-score".
func (s *NoiseStrategy) Name() string { return "noise-score" }

// Rank computes self-confidence scores and ranks ascending.
func (s *NoiseStrategy) Rank(train, valid *ml.Dataset) ([]int, error) {
	scores, err := importance.SelfConfidence(train, importance.NoiseConfig{Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	return scores.RankAscending(), nil
}

// InfluenceStrategy ranks by ascending influence-function score.
type InfluenceStrategy struct{}

// Name returns "influence".
func (s *InfluenceStrategy) Name() string { return "influence" }

// Rank computes influence scores and ranks ascending.
func (s *InfluenceStrategy) Rank(train, valid *ml.Dataset) ([]int, error) {
	scores, err := importance.Influence(train, valid, importance.InfluenceConfig{})
	if err != nil {
		return nil, err
	}
	return scores.RankAscending(), nil
}

// CurvePoint is one measurement of the cleaning curve.
type CurvePoint struct {
	Cleaned  int     // total rows handed to the oracle so far
	Accuracy float64 // test accuracy after retraining
}

// Result is the outcome of an iterative cleaning run.
type Result struct {
	Strategy string
	Curve    []CurvePoint
	// Final is the training data after all cleaning rounds. It shares
	// with the input what no round repaired: under a LabelOracle, the
	// feature matrix and groups.
	Final *ml.Dataset
}

// IterativeClean runs the attendee-task loop: repeatedly (1) rank the
// current training data with the strategy, (2) clean the next batch of
// most-suspicious not-yet-cleaned rows via the oracle, (3) retrain and
// record test accuracy — until the budget of oracle calls is exhausted.
// The curve starts with the accuracy before any cleaning.
//
// When newModel yields a *ml.KNN, the test rows' neighbors are selected
// once, through a neighbor index over (train, test) (see testVotes), and
// every round whose training features are unchanged re-votes them under
// the round's labels instead of refitting; the curve is bit-for-bit the
// one refitting gives.
func IterativeClean(
	train, valid, test *ml.Dataset,
	oracle Oracle,
	strat Strategy,
	newModel func() ml.Classifier,
	batch, budget int,
) (*Result, error) {
	sp := obs.StartSpan("cleaning.run")
	defer sp.End()
	if err := checkBatch(batch, budget); err != nil {
		return nil, err
	}
	tv, err := newTestVotes(nil, train, test, newModel, 0)
	if err != nil {
		return nil, err
	}
	return iterativeClean(sp, tv, train, valid, test, oracle, strat, newModel, batch, budget)
}

// checkBatch validates the batch size and the oracle budget.
func checkBatch(batch, budget int) error {
	if batch <= 0 {
		return fmt.Errorf("cleaning: batch must be positive, got %d", batch)
	}
	if budget < 0 {
		return fmt.Errorf("cleaning: negative budget %d", budget)
	}
	return nil
}

// testVotes is the loop-invariant half of refitting a kNN on the test
// split: a neighbor index over (train, test), whose top-k cache holds
// each test row's k nearest training rows under the index's training
// features. A label oracle never touches features, and a kNN depends on
// its training labels only in the vote, so a round whose features are
// bit-equal to the index's scores ml.Accuracy(test.Y,
// ix.PredictBatchLabels(k, cur.Y)): the same selection and the same vote
// as ml.EvaluateAccuracy with a fresh kNN, whose Predict computes its
// distances with the index's kernel, at O(test·k) per round instead of
// O(test·train·dim). The index selects once per k and is safe for
// concurrent use, so concurrent strategy runs, and the requests of a
// server that keeps the index, share one selection.
type testVotes struct {
	k  int // the factory's K; PredictBatchLabels clamps it to the training size
	ix *ml.NeighborIndex
}

// newTestVotes returns the shared selection when newModel yields a
// *ml.KNN with K >= 1 and train is non-empty: over ix, or over a new
// index on (train, test) with the given workers when ix is nil.
// Otherwise it returns nil and every round refits.
func newTestVotes(ix *ml.NeighborIndex, train, test *ml.Dataset, newModel func() ml.Classifier, workers int) (*testVotes, error) {
	knn, ok := newModel().(*ml.KNN)
	if !ok || knn.K < 1 || train.Len() == 0 {
		return nil, nil
	}
	if ix == nil {
		var err error
		if ix, err = ml.NewNeighborIndex(train, test, workers); err != nil {
			return nil, err
		}
	}
	return &testVotes{k: knn.K, ix: ix}, nil
}

// accuracy is cur's test accuracy: a re-vote over the shared selection
// when cur's features are bit-equal to the index's training features,
// else a fresh fit of newModel exactly as without the selection.
func (tv *testVotes) accuracy(cur, test *ml.Dataset, newModel func() ml.Classifier) (float64, error) {
	if tv == nil || !sameBits(cur.X, tv.ix.TrainSet().X) {
		return ml.EvaluateAccuracy(newModel(), cur, test)
	}
	pred, err := tv.ix.PredictBatchLabels(tv.k, cur.Y)
	if err != nil {
		return 0, err
	}
	return ml.Accuracy(test.Y, pred), nil
}

// sameBits reports whether two matrices have the same shape and the same
// float64 bit patterns: at once when they are the same matrix, as a
// label repair's features are the index's.
func sameBits(a, b *linalg.Matrix) bool {
	if a == b {
		return true
	}
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// iterativeClean is IterativeClean reporting under an explicit parent span,
// so concurrent strategy runs (CompareStrategies) each get their own
// correctly nested trace instead of racing over the tracer's implicit
// current-span stack. tv is the shared test-neighbor selection, or nil.
func iterativeClean(
	sp *obs.Span,
	tv *testVotes,
	train, valid, test *ml.Dataset,
	oracle Oracle,
	strat Strategy,
	newModel func() ml.Classifier,
	batch, budget int,
) (*Result, error) {
	sp.SetStr("strategy", strat.Name()).SetInt("budget", int64(budget)).SetInt("batch", int64(batch))
	prog := obs.NewProgress("cleaning_budget", budget)
	defer prog.Done()

	// Rounds replace cur and never write it, so cur shares train's
	// features, which the test votes then see by pointer; its labels are
	// its own, so Final never aliases the input's.
	cur := &ml.Dataset{X: train.X, Y: append([]int(nil), train.Y...), Groups: train.Groups}
	acc, err := tv.accuracy(cur, test, newModel)
	if err != nil {
		return nil, err
	}
	obs.SetGauge("cleaning_accuracy", acc)
	res := &Result{Strategy: strat.Name(), Curve: []CurvePoint{{Cleaned: 0, Accuracy: acc}}}
	cleaned := make(map[int]bool)
	for len(cleaned) < budget && len(cleaned) < train.Len() {
		rsp := sp.StartChild("cleaning.round")
		order, err := strat.Rank(cur, valid)
		if err != nil {
			rsp.End()
			return nil, err
		}
		var next []int
		for _, i := range order {
			if len(next) == batch || len(cleaned)+len(next) == budget {
				break
			}
			if !cleaned[i] {
				next = append(next, i)
			}
		}
		if len(next) == 0 {
			rsp.End()
			break
		}
		cur, err = oracle.Clean(cur, next)
		if err != nil {
			rsp.End()
			return nil, err
		}
		for _, i := range next {
			cleaned[i] = true
		}
		acc, err = tv.accuracy(cur, test, newModel)
		if err != nil {
			rsp.End()
			return nil, err
		}
		res.Curve = append(res.Curve, CurvePoint{Cleaned: len(cleaned), Accuracy: acc})
		obs.Inc("cleaning_rounds_total")
		obs.Count("cleaning_rows_cleaned_total", int64(len(next)))
		obs.SetGauge("cleaning_accuracy", acc)
		prog.Tick(len(next))
		rsp.SetInt("cleaned", int64(len(next))).SetInt("total_cleaned", int64(len(cleaned)))
		if obs.Enabled() {
			rsp.SetStr("accuracy", fmt.Sprintf("%.4f", acc))
		}
		rsp.End()
	}
	res.Final = cur
	return res, nil
}

// CompareStrategies runs IterativeClean for every strategy on identical
// inputs and returns the results in strategy order. Strategies run
// concurrently on the shared worker pool; this is
// CompareStrategiesParallel with the automatic worker count.
func CompareStrategies(
	train, valid, test *ml.Dataset,
	oracle Oracle,
	strategies []Strategy,
	newModel func() ml.Classifier,
	batch, budget int,
) ([]*Result, error) {
	return CompareStrategiesParallel(train, valid, test, oracle, strategies, newModel, batch, budget, 0)
}

// CompareStrategiesParallel runs the strategies concurrently with an
// explicit worker count (<= 0 = GOMAXPROCS). Each strategy's cleaning loop
// is independent — IterativeClean copies the training labels, oracles
// and strategies must not mutate their inputs, and newModel must return
// a fresh classifier per call — so results (curve order, accuracies,
// final datasets) are bit-for-bit identical for any worker count,
// including 1. Results and the first error (if any) are reduced in
// strategy order. Strategies that rank with kNN-Shapley share one
// neighbor index through the singleflight cache, so the neighbor order
// table is still built only once across the fan-out.
// For a kNN factory the test rows' neighbors are selected once, through a
// neighbor index over (train, test) built before the fan-out, and every
// strategy's rounds re-vote that selection (see IterativeClean);
// CompareStrategiesWithIndex takes a caller's index instead. The
// cleaning_strategies_inflight gauge tracks concurrency; each strategy
// reports its rounds under its own cleaning.run span.
func CompareStrategiesParallel(
	train, valid, test *ml.Dataset,
	oracle Oracle,
	strategies []Strategy,
	newModel func() ml.Classifier,
	batch, budget, workers int,
) ([]*Result, error) {
	return compareStrategies(train, valid, test, nil, oracle, strategies, newModel, batch, budget, workers)
}

// CompareStrategiesWithIndex is CompareStrategiesParallel selecting the
// test rows' neighbors through testIx, a neighbor index whose training
// rows are train's and whose queries are test's (by features: its labels
// are never read), so a caller that compares strategies on one split
// again and again selects once: the index keeps its top-k across calls.
// A round re-votes only while its features are bit-equal to testIx's
// training features, and refits otherwise, so the results are bit-for-bit
// CompareStrategiesParallel's. A nil testIx returns ErrEmptyInput, and
// one whose row counts differ from train's or test's ErrShapeMismatch.
func CompareStrategiesWithIndex(
	train, valid, test *ml.Dataset,
	testIx *ml.NeighborIndex,
	oracle Oracle,
	strategies []Strategy,
	newModel func() ml.Classifier,
	batch, budget, workers int,
) ([]*Result, error) {
	if testIx == nil {
		return nil, nderr.Empty("cleaning: test index")
	}
	if testIx.Train.Len() != train.Len() {
		return nil, nderr.Mismatch("cleaning: test index training rows", train.Len(), testIx.Train.Len())
	}
	if testIx.Queries.Len() != test.Len() {
		return nil, nderr.Mismatch("cleaning: test index query rows", test.Len(), testIx.Queries.Len())
	}
	return compareStrategies(train, valid, test, testIx, oracle, strategies, newModel, batch, budget, workers)
}

// compareStrategies runs the strategies' cleaning loops on workers,
// re-voting through testIx, or through an index it builds when testIx is
// nil.
func compareStrategies(
	train, valid, test *ml.Dataset,
	testIx *ml.NeighborIndex,
	oracle Oracle,
	strategies []Strategy,
	newModel func() ml.Classifier,
	batch, budget, workers int,
) ([]*Result, error) {
	csp := obs.StartSpan("cleaning.compare")
	csp.SetInt("strategies", int64(len(strategies))).
		SetInt("workers", int64(par.Workers(workers, len(strategies))))
	defer csp.End()
	if err := checkBatch(batch, budget); err != nil {
		return nil, err
	}
	tv, err := newTestVotes(testIx, train, test, newModel, workers)
	if err != nil {
		return nil, err
	}

	out := make([]*Result, len(strategies))
	_, err = par.ForErr("cleaning.compare", workers, len(strategies), func(_, i int) error {
		obs.AddGauge("cleaning_strategies_inflight", 1)
		defer obs.AddGauge("cleaning_strategies_inflight", -1)
		ssp := csp.StartChild("cleaning.run")
		defer ssp.End()
		r, err := iterativeClean(ssp, tv, train, valid, test, oracle, strategies[i], newModel, batch, budget)
		if err != nil {
			return fmt.Errorf("cleaning: strategy %s: %w", strategies[i].Name(), err)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AreaUnderCurve integrates a cleaning curve over the cleaned-count axis
// (trapezoid rule) — a single-number summary for strategy comparison;
// higher is better. A curve whose cleaned-count span is zero (every point
// at the same budget position, e.g. a budget exhausted at 0) has no axis to
// integrate over; the mean accuracy of its points is returned instead of
// the 0/0 NaN.
func AreaUnderCurve(curve []CurvePoint) float64 {
	if len(curve) < 2 {
		if len(curve) == 1 {
			return curve[0].Accuracy
		}
		return 0
	}
	span := float64(curve[len(curve)-1].Cleaned - curve[0].Cleaned)
	if span == 0 {
		mean := 0.0
		for _, p := range curve {
			mean += p.Accuracy
		}
		return mean / float64(len(curve))
	}
	area := 0.0
	for i := 1; i < len(curve); i++ {
		dx := float64(curve[i].Cleaned - curve[i-1].Cleaned)
		area += dx * (curve[i].Accuracy + curve[i-1].Accuracy) / 2
	}
	return area / span
}
