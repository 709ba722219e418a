package importance

import (
	"testing"

	"nde/internal/ml"
)

func TestSelfConfidenceDetectsFlips(t *testing.T) {
	clean := blobs(200, 2.5, 61)
	dirty, flipped := flipLabels(clean, 0.1, 62)
	scores, err := SelfConfidence(dirty, NoiseConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prec := scores.PrecisionAtK(flipped, len(flipped))
	if prec < 0.7 {
		t.Errorf("self-confidence precision@k = %v, want >= 0.7", prec)
	}
	for _, s := range scores {
		if s < 0 || s > 1 {
			t.Errorf("self-confidence %v outside [0,1]", s)
		}
	}
}

func TestMarginScoreDetectsFlips(t *testing.T) {
	clean := blobs(200, 2.5, 63)
	dirty, flipped := flipLabels(clean, 0.1, 64)
	scores, err := MarginScore(dirty, NoiseConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	prec := scores.PrecisionAtK(flipped, len(flipped))
	if prec < 0.7 {
		t.Errorf("margin precision@k = %v, want >= 0.7", prec)
	}
	for _, s := range scores {
		if s < -1-1e-9 || s > 1+1e-9 {
			t.Errorf("margin %v outside [-1,1]", s)
		}
	}
}

func TestNoiseConfigCustomModel(t *testing.T) {
	clean := blobs(100, 2.5, 68)
	dirty, flipped := flipLabels(clean, 0.1, 69)
	scores, err := SelfConfidence(dirty, NoiseConfig{
		Seed:     5,
		Folds:    4,
		NewModel: func() ml.ProbabilisticClassifier { return ml.NewKNN(7) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if prec := scores.PrecisionAtK(flipped, len(flipped)); prec < 0.6 {
		t.Errorf("kNN-based self-confidence precision = %v", prec)
	}
}
