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
	// Clean returns a copy of d with the given rows repaired.
	Clean(d *ml.Dataset, rows []int) (*ml.Dataset, error)
}

// LabelOracle repairs labels from a hidden ground-truth vector.
type LabelOracle struct {
	Truth []int
}

// Clean replaces the labels of the given rows with the ground truth. A
// negative truth label or an out-of-range row is rejected before any
// label is written.
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
	out := d.Clone()
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

// KNNShapleyStrategy ranks by ascending kNN-Shapley value.
type KNNShapleyStrategy struct {
	K int // neighbors (default 5)
}

// Name returns "knn-shapley".
func (s *KNNShapleyStrategy) Name() string { return "knn-shapley" }

// Rank computes kNN-Shapley scores and ranks ascending.
func (s *KNNShapleyStrategy) Rank(train, valid *ml.Dataset) ([]int, error) {
	k := s.K
	if k <= 0 {
		k = 5
	}
	scores, err := importance.KNNShapley(k, train, valid)
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
	Final    *ml.Dataset // the training data after all cleaning rounds
}

// IterativeClean runs the attendee-task loop: repeatedly (1) rank the
// current training data with the strategy, (2) clean the next batch of
// most-suspicious not-yet-cleaned rows via the oracle, (3) retrain and
// record test accuracy — until the budget of oracle calls is exhausted.
// The curve starts with the accuracy before any cleaning.
//
// When newModel yields a *ml.KNN, the test rows' neighbors are selected
// once up front (see testVotes) and every round whose training features
// are unchanged re-votes them under the round's labels instead of
// refitting; the curve is bit-for-bit the one refitting gives.
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
	tv, err := newTestVotes(sp, train, test, newModel, 0)
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
// split: each test row's k nearest training rows under the training
// features it was built from. A label oracle never touches features, and
// a kNN depends on its training labels only through the vote, so a round
// whose features are bit-equal to x scores ml.Accuracy(test.Y,
// nb.Vote(cur.Y)) — the same selection and the same vote as
// ml.EvaluateAccuracy with a fresh kNN, at O(test·k) instead of
// O(test·train·dim). It is read-only once built, so concurrent strategy
// runs share one.
type testVotes struct {
	x  *linalg.Matrix // training features the selection was made under
	nb *ml.Neighborhoods
}

// newTestVotes builds the shared selection under span parent when
// newModel yields a *ml.KNN with K >= 1 and train is non-empty; otherwise
// it returns nil and every round refits. ml.NeighborIndex is not used
// here: its Gram-identity distances rank tied rows differently from
// KNN.Predict's direct differences.
func newTestVotes(parent *obs.Span, train, test *ml.Dataset, newModel func() ml.Classifier, workers int) (*testVotes, error) {
	knn, ok := newModel().(*ml.KNN)
	if !ok || knn.K < 1 || train.Len() == 0 {
		return nil, nil
	}
	sp := parent.StartChild("cleaning.neighborhoods")
	defer sp.End()
	if err := knn.Fit(train); err != nil {
		return nil, err
	}
	nb, err := knn.Neighborhoods(test, workers)
	if err != nil {
		return nil, err
	}
	return &testVotes{x: train.X, nb: nb}, nil
}

// accuracy is cur's test accuracy: a re-vote over the shared selection
// when cur's features are bit-equal to the ones it was built from, else
// a fresh fit of newModel exactly as without the selection.
func (tv *testVotes) accuracy(cur, test *ml.Dataset, newModel func() ml.Classifier) (float64, error) {
	if tv == nil || !sameBits(cur.X, tv.x) {
		return ml.EvaluateAccuracy(newModel(), cur, test)
	}
	pred, err := tv.nb.Vote(cur.Y)
	if err != nil {
		return 0, err
	}
	return ml.Accuracy(test.Y, pred), nil
}

// sameBits reports whether two matrices have the same shape and the same
// float64 bit patterns.
func sameBits(a, b *linalg.Matrix) bool {
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

	cur := train.Clone()
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
// is independent — IterativeClean clones the training data, oracles must
// not mutate their inputs, and newModel must return a fresh classifier per
// call — so results (curve order, accuracies, final datasets) are
// bit-for-bit identical for any worker count, including 1. Results and the
// first error (if any) are reduced in strategy order. Strategies that rank
// with kNN-Shapley share one neighbor index through the singleflight cache,
// so the distance geometry is still computed only once across the fan-out.
// For a kNN factory the test rows' neighbors are selected once, before the
// fan-out, and every strategy's rounds re-vote that read-only selection
// (see IterativeClean). The cleaning_strategies_inflight gauge tracks
// concurrency; each strategy reports its rounds under its own cleaning.run
// span.
func CompareStrategiesParallel(
	train, valid, test *ml.Dataset,
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
	tv, err := newTestVotes(csp, train, test, newModel, workers)
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
