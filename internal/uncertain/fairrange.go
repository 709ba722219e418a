package uncertain

import (
	"fmt"
	"math/rand"

	"nde/internal/ml"
)

// FairnessRange bounds a fairness metric over the possible worlds of an
// uncertain training set — the consistent-range-approximation idea (Zhu et
// al., VLDB 2023): instead of reporting one fairness number computed on one
// arbitrary repair of biased data, report the interval the metric can take
// across plausible repairs, and certify fairness only when the WHOLE
// interval is acceptable.
type FairnessRange struct {
	// Metric is the fairness violation in the center (imputed) world.
	Center float64
	// Range is the empirical [min, max] violation across sampled worlds
	// (an under-approximation of the true range).
	Range Interval
	// Worlds is the number of worlds evaluated.
	Worlds int
}

// FairnessRangeConfig controls the range estimation.
type FairnessRangeConfig struct {
	// Worlds is the number of sampled completions (default 20). Corner
	// worlds (all-low, all-high) are always added.
	Worlds int
	// Seed drives world sampling.
	Seed int64
	// NewModel builds the classifier (default logistic regression).
	NewModel func() ml.Classifier
	// Pos is the positive class of the fairness metric (default 1).
	Pos int
	// Metric computes the violation (default equalized odds difference).
	Metric func(truth, pred []int, groups []string, pos int) float64
}

// EstimateFairnessRange trains one model per possible world of the
// symbolic training data and evaluates the fairness metric on the grouped
// validation set, returning the induced violation range.
func EstimateFairnessRange(train *SymbolicDataset, valid *ml.Dataset, cfg FairnessRangeConfig) (*FairnessRange, error) {
	if train.Len() == 0 {
		return nil, fmt.Errorf("uncertain: empty training set")
	}
	if len(valid.Groups) != valid.Len() || valid.Len() == 0 {
		return nil, fmt.Errorf("uncertain: validation set must carry protected groups")
	}
	worlds := cfg.Worlds
	if worlds <= 0 {
		worlds = 20
	}
	newModel := cfg.NewModel
	if newModel == nil {
		newModel = func() ml.Classifier { return ml.NewLogisticRegression() }
	}
	metric := cfg.Metric
	if metric == nil {
		metric = ml.EqualizedOddsDifference
	}

	evalWorld := func(d *ml.Dataset) (float64, error) {
		m := newModel()
		if err := m.Fit(d); err != nil {
			return 0, err
		}
		pred := ml.PredictAll(m, valid)
		return metric(valid.Y, pred, valid.Groups, cfg.Pos), nil
	}

	center, err := evalWorld(train.Center())
	if err != nil {
		return nil, err
	}
	res := &FairnessRange{Center: center, Range: Point(center), Worlds: 1}
	observe := func(v float64) {
		res.Range = res.Range.Union(Point(v))
		res.Worlds++
	}
	// corner worlds first: extremes often attain the range endpoints
	for _, hi := range []bool{false, true} {
		h := hi
		v, err := evalWorld(train.CornerWorld(func(int, int) bool { return h }))
		if err != nil {
			return nil, err
		}
		observe(v)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	for w := 0; w < worlds; w++ {
		v, err := evalWorld(train.SampleWorld(r))
		if err != nil {
			return nil, err
		}
		observe(v)
	}
	return res, nil
}
