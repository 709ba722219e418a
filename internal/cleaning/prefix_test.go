package cleaning

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nde/internal/importance"
	"nde/internal/ml"
)

// fullRankClean is the cleaning loop as it ran while every round ranked
// all rows: the score strategies with Scores.RankAscending over every
// score, random with its whole permutation (fullOrder). Accuracy is read
// as IterativeClean reads it. It is the oracle for rounds that ask a
// strategy for the prefix they can use.
func fullRankClean(
	train, valid, test *ml.Dataset,
	oracle Oracle,
	strat Strategy,
	newModel func() ml.Classifier,
	batch, budget int,
) (*Result, error) {
	tv, err := newTestVotes(nil, train, test, newModel, 1)
	if err != nil {
		return nil, err
	}
	cur := &ml.Dataset{X: train.X, Y: append([]int(nil), train.Y...), Groups: train.Groups}
	acc, err := tv.accuracy(cur, test, newModel)
	if err != nil {
		return nil, err
	}
	res := &Result{Strategy: strat.Name(), Curve: []CurvePoint{{Cleaned: 0, Accuracy: acc}}}
	cleaned := make(map[int]bool)
	for len(cleaned) < budget && len(cleaned) < train.Len() {
		order, err := fullOrder(strat, cur, valid)
		if err != nil {
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
			break
		}
		if cur, err = oracle.Clean(cur, next); err != nil {
			return nil, err
		}
		for _, i := range next {
			cleaned[i] = true
		}
		if acc, err = tv.accuracy(cur, test, newModel); err != nil {
			return nil, err
		}
		res.Curve = append(res.Curve, CurvePoint{Cleaned: len(cleaned), Accuracy: acc})
	}
	res.Final = cur
	return res, nil
}

// fullOrder is strat's whole priority order over train, computed from its
// scores without asking it for a prefix.
func fullOrder(strat Strategy, train, valid *ml.Dataset) ([]int, error) {
	var scores importance.Scores
	var err error
	switch s := strat.(type) {
	case *RandomStrategy:
		return rand.New(rand.NewSource(s.Seed)).Perm(train.Len()), nil
	case *KNNShapleyStrategy:
		scores, err = importance.KNNShapley(s.K, train, valid)
	case *LOOStrategy:
		newModel := func() ml.Classifier { return ml.NewKNN(5) }
		scores, err = importance.LeaveOneOut(train.Len(), importance.AccuracyUtility(newModel, train, valid))
	case *NoiseStrategy:
		scores, err = importance.SelfConfidence(train, importance.NoiseConfig{Seed: s.Seed})
	case *InfluenceStrategy:
		scores, err = importance.Influence(train, valid, importance.InfluenceConfig{})
	case *poolStrategy:
		scores = s.scores(train)
	default:
		return nil, fmt.Errorf("no full order for %T", strat)
	}
	if err != nil {
		return nil, err
	}
	return scores.RankAscending(), nil
}

// poolStrategy scores each row with a value from pool picked by its index
// and label, so its rankings are tie-heavy and change as labels are
// repaired; a pool with NaN takes BottomK's NaN fallback.
type poolStrategy struct {
	name string
	pool []float64
}

func (s *poolStrategy) Name() string { return s.name }

func (s *poolStrategy) Rank(train, valid *ml.Dataset, m int) ([]int, error) {
	return s.scores(train).BottomK(m), nil
}

func (s *poolStrategy) scores(train *ml.Dataset) importance.Scores {
	out := make(importance.Scores, train.Len())
	for i := range out {
		out[i] = s.pool[(3*i+2*train.Y[i])%len(s.pool)]
	}
	return out
}

// A round that asks its strategy for the first m rows cleans what a
// round that ranked every row cleaned: every strategy, on continuous and
// tie-heavy data, at budgets below one batch, across several rounds and
// past the row count, gives fullRankClean's curve and final data bit for
// bit, kNN-Shapley with and without an index and with an oracle that
// repairs features, and two stubs whose scores tie, one with NaN.
func TestIterativeCleanPrefixMatchesFullRank(t *testing.T) {
	contDirty, contValid, contTest, contTruth, _ := dirtySetup(t, 60)
	tieDirty, tieValid, tieTest, tieTruth := tieSplit(t, 60, 11)
	negZero := math.Copysign(0, -1)
	newModel := func() ml.Classifier { return ml.NewKNN(5) }
	const batch = 7
	for _, sp := range []struct {
		name               string
		dirty, valid, test *ml.Dataset
		truth              []int
	}{
		{"continuous", contDirty, contValid, contTest, contTruth},
		{"ties", tieDirty, tieValid, tieTest, tieTruth},
	} {
		ix, err := ml.NewNeighborIndex(sp.dirty, sp.valid, 1)
		if err != nil {
			t.Fatal(err)
		}
		strategies := []Strategy{
			&RandomStrategy{Seed: 5},
			&KNNShapleyStrategy{K: 5},
			&KNNShapleyStrategy{K: 3, Index: ix},
			&LOOStrategy{},
			&NoiseStrategy{Seed: 5},
			&InfluenceStrategy{},
			&poolStrategy{name: "ties", pool: []float64{-1, 0, negZero, 0.5, 1}},
			&poolStrategy{name: "nan", pool: []float64{0.5, math.NaN(), -1, negZero, 0, math.Inf(1)}},
		}
		for _, feat := range []bool{false, true} {
			var oracle Oracle = &LabelOracle{Truth: sp.truth}
			if feat {
				oracle = &featureOracle{LabelOracle{Truth: sp.truth}}
			}
			for _, st := range strategies {
				for _, budget := range []int{batch - 3, 3*batch + 2, sp.dirty.Len() + 5} {
					name := fmt.Sprintf("%s/features=%v/%s/budget=%d", sp.name, feat, st.Name(), budget)
					want, err := fullRankClean(sp.dirty, sp.valid, sp.test, oracle, st, newModel, batch, budget)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got, err := IterativeClean(sp.dirty, sp.valid, sp.test, oracle, st, newModel, batch, budget)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					sameResult(t, name, got, want)
				}
			}
		}
	}
}
