package importance

import (
	"fmt"

	"nde/internal/linalg"
	"nde/internal/ml"
)

// AmortizedEstimator implements model-based importance estimation in the
// spirit of stochastic amortization (Covert et al., NeurIPS 2024): instead
// of computing an expensive importance score for every training example, a
// cheap regression model is fitted from example features (plus a label-
// agreement indicator) to *noisy* importance estimates on a labeled subset,
// and then predicts scores for the rest. Because the regression targets
// are unbiased noisy estimates, the amortized model converges to the true
// scores as the subset grows — at a fraction of the cost.
type AmortizedEstimator struct {
	// L2 is the ridge penalty of the underlying regression (default 1e-3).
	L2 float64

	reg      *ml.LinearRegression
	trainRef *ml.Dataset
}

// NewAmortizedEstimator returns an estimator with default regularization.
func NewAmortizedEstimator() *AmortizedEstimator {
	return &AmortizedEstimator{L2: 1e-3}
}

// amortFeatures augments the raw features with signals known to correlate
// with importance: the example's margin-style agreement with its local
// neighborhood (fraction of the 5 nearest training points sharing its
// label).
func (a *AmortizedEstimator) amortFeatures(train *ml.Dataset, i int) []float64 {
	x := train.Row(i)
	out := make([]float64, 0, train.Dim()+1)
	out = append(out, x...)

	// neighborhood label agreement
	type di struct {
		d float64
		j int
	}
	best := [5]di{}
	for k := range best {
		best[k] = di{d: 1e300, j: -1}
	}
	for j := 0; j < train.Len(); j++ {
		if j == i {
			continue
		}
		d := ml.EuclideanDistance(train.Row(j), x)
		for k := range best {
			if d < best[k].d {
				copy(best[k+1:], best[k:len(best)-1])
				best[k] = di{d, j}
				break
			}
		}
	}
	agree := 0.0
	n := 0.0
	for _, b := range best {
		if b.j >= 0 {
			n++
			if train.Y[b.j] == train.Y[i] {
				agree++
			}
		}
	}
	if n > 0 {
		agree /= n
	}
	out = append(out, agree)
	return out
}

// Fit trains the amortized model from noisy importance estimates on the
// labeled subset of rows.
func (a *AmortizedEstimator) Fit(train *ml.Dataset, labeledRows []int, noisyScores []float64) error {
	if len(labeledRows) != len(noisyScores) {
		return fmt.Errorf("importance: %d labeled rows for %d scores", len(labeledRows), len(noisyScores))
	}
	if len(labeledRows) < 2 {
		return fmt.Errorf("importance: amortization needs at least 2 labeled rows, got %d", len(labeledRows))
	}
	a.trainRef = train
	dim := train.Dim() + 1
	x := linalg.NewMatrix(len(labeledRows), dim)
	for o, i := range labeledRows {
		copy(x.Row(o), a.amortFeatures(train, i))
	}
	a.reg = &ml.LinearRegression{L2: a.L2}
	return a.reg.FitXY(x, noisyScores)
}

// Predict returns amortized scores for every row of the training set the
// estimator was fitted against.
func (a *AmortizedEstimator) Predict() (Scores, error) {
	if a.reg == nil {
		return nil, fmt.Errorf("importance: Predict before Fit")
	}
	out := make(Scores, a.trainRef.Len())
	for i := range out {
		out[i] = a.reg.PredictValue(a.amortFeatures(a.trainRef, i))
	}
	return out, nil
}
