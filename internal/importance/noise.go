package importance

import (
	"fmt"

	"nde/internal/ml"
)

// NoiseConfig controls the uncertainty-based label-noise scores.
type NoiseConfig struct {
	// Folds for out-of-sample probability estimation (default 5).
	Folds int
	// Seed for the fold assignment.
	Seed int64
	// NewModel builds the probabilistic model used to estimate label
	// probabilities (default: logistic regression).
	NewModel func() ml.ProbabilisticClassifier
}

func (cfg NoiseConfig) withDefaults(n int) NoiseConfig {
	if cfg.Folds < 2 {
		cfg.Folds = 5
	}
	if cfg.Folds > n {
		cfg.Folds = n
	}
	if cfg.NewModel == nil {
		cfg.NewModel = func() ml.ProbabilisticClassifier { return ml.NewLogisticRegression() }
	}
	return cfg
}

// outOfFoldProbs estimates P(class | x_i) for every training point using a
// model that never saw that point (cross-fitting), the core construction of
// confident learning (Northcutt et al., JAIR 2021).
func outOfFoldProbs(train *ml.Dataset, cfg NoiseConfig) ([][]float64, error) {
	n := train.Len()
	cfg = cfg.withDefaults(n)
	trains, valids, err := ml.KFold(n, cfg.Folds, cfg.Seed)
	if err != nil {
		return nil, err
	}
	probs := make([][]float64, n)
	for f := range trains {
		m := cfg.NewModel()
		if err := m.Fit(train.Subset(trains[f])); err != nil {
			return nil, fmt.Errorf("importance: noise-score fold %d: %w", f, err)
		}
		for _, i := range valids[f] {
			probs[i] = m.Proba(train.Row(i))
		}
	}
	return probs, nil
}

// SelfConfidence scores each training example by the out-of-fold predicted
// probability of its *given* label. Mislabeled examples receive low
// self-confidence, so the bottom-k convention applies directly.
func SelfConfidence(train *ml.Dataset, cfg NoiseConfig) (Scores, error) {
	probs, err := outOfFoldProbs(train, cfg)
	if err != nil {
		return nil, err
	}
	scores := make(Scores, train.Len())
	for i, p := range probs {
		scores[i] = p[train.Y[i]]
	}
	return scores, nil
}

// MarginScore scores each example by P(given label) − max P(other label)
// from out-of-fold probabilities — an AUM-style margin statistic (Pleiss et
// al., NeurIPS 2020). Strongly negative margins indicate likely label
// errors.
func MarginScore(train *ml.Dataset, cfg NoiseConfig) (Scores, error) {
	probs, err := outOfFoldProbs(train, cfg)
	if err != nil {
		return nil, err
	}
	scores := make(Scores, train.Len())
	for i, p := range probs {
		given := p[train.Y[i]]
		other := 0.0
		for c, v := range p {
			if c != train.Y[i] && v > other {
				other = v
			}
		}
		scores[i] = given - other
	}
	return scores, nil
}
