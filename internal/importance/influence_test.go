package importance

import (
	"testing"

	"nde/internal/linalg"
	"nde/internal/ml"
)

func TestInfluenceFlaggedPointsScoreLow(t *testing.T) {
	clean := blobs(150, 2.5, 31)
	valid := blobs(80, 2.5, 32)
	dirty, flipped := flipLabels(clean, 0.1, 33)
	scores, err := Influence(dirty, valid, InfluenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != dirty.Len() {
		t.Fatalf("scores len = %d", len(scores))
	}
	prec := scores.PrecisionAtK(flipped, len(flipped))
	if prec < 0.6 {
		t.Errorf("influence precision@k = %v, want >= 0.6", prec)
	}
}

func TestInfluenceHelpfulPointsPositive(t *testing.T) {
	train := blobs(100, 3, 41)
	valid := blobs(50, 3, 42)
	scores, err := Influence(train, valid, InfluenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// on clean, well-separated data the mean influence should be >= 0
	// (points on average help)
	if scores.Sum() < 0 {
		t.Errorf("total influence %v < 0 on clean data", scores.Sum())
	}
}

func TestInfluenceErrors(t *testing.T) {
	empty := &ml.Dataset{X: linalg.NewMatrix(0, 2), Y: nil}
	d := blobs(10, 1, 1)
	if _, err := Influence(empty, d, InfluenceConfig{}); err == nil {
		t.Error("expected error for empty train")
	}
	if _, err := Influence(d, empty, InfluenceConfig{}); err == nil {
		t.Error("expected error for empty valid")
	}
}

// Influence should approximate actual LOO retraining deltas in sign for the
// most extreme points: the lowest-influence point's removal should not hurt
// validation accuracy more than the highest-influence point's removal.
func TestInfluenceOrdersExtremesLikeLOO(t *testing.T) {
	clean := blobs(60, 2, 51)
	valid := blobs(40, 2, 52)
	dirty, _ := flipLabels(clean, 0.15, 53)
	scores, err := Influence(dirty, valid, InfluenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rank := scores.RankAscending()
	worst, best := rank[0], rank[len(rank)-1]
	u := AccuracyUtility(func() ml.Classifier { return ml.NewLogisticRegression() }, dirty, valid)
	without := func(i int) []int {
		var s []int
		for j := 0; j < dirty.Len(); j++ {
			if j != i {
				s = append(s, j)
			}
		}
		return s
	}
	accNoWorst, err := u(without(worst))
	if err != nil {
		t.Fatal(err)
	}
	accNoBest, err := u(without(best))
	if err != nil {
		t.Fatal(err)
	}
	if accNoWorst < accNoBest {
		t.Errorf("removing worst point gave %v, removing best gave %v", accNoWorst, accNoBest)
	}
}
