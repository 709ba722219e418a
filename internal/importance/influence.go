package importance

import (
	"fmt"

	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/obs"
)

// InfluenceConfig controls the influence-function computation.
type InfluenceConfig struct {
	// L2 is the ridge penalty used both for training the logistic model
	// and for damping the Hessian (default 1e-3). Damping keeps the
	// Hessian positive definite for separable data.
	L2 float64
	// Epochs for the underlying logistic fit (default 300).
	Epochs int
}

// Influence computes influence-function importance scores for a logistic
// regression model (Koh & Liang, ICML 2017). The score of training point i
// approximates the change in total validation loss caused by REMOVING i:
//
//	score_i ≈ L_val(θ_{-i}) − L_val(θ̂) ≈ (1/n) · g_val · H⁻¹ g_i
//
// where g_i is the gradient of the regularized loss at point i, g_val is
// the validation-loss gradient and H the training Hessian at the optimum.
// Positive scores mean removal hurts (the point is valuable); harmful
// points — e.g. mislabeled examples — receive negative scores, so the
// standard bottom-k cleaning convention applies.
func Influence(train, valid *ml.Dataset, cfg InfluenceConfig) (Scores, error) {
	if train.Len() == 0 || valid.Len() == 0 {
		return nil, fmt.Errorf("importance: influence needs non-empty train (%d) and valid (%d)", train.Len(), valid.Len())
	}
	l2 := cfg.L2
	if l2 <= 0 {
		l2 = 1e-3
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 300
	}
	sp := obs.StartSpan("importance.influence")
	sp.SetInt("train", int64(train.Len())).SetInt("valid", int64(valid.Len())).SetInt("dim", int64(train.Dim()))
	defer sp.End()
	model := &ml.LogisticRegression{LR: 0.5, Epochs: epochs, L2: l2}
	if err := model.Fit(train); err != nil {
		return nil, err
	}
	// augmented parameter vector [w; b]; dim d+1
	d := train.Dim()
	dim := d + 1
	theta := append(append([]float64(nil), model.Weights()...), model.Intercept())

	aug := func(x []float64) []float64 { return append(append([]float64(nil), x...), 1) }
	sig := func(x []float64) float64 {
		z := 0.0
		for j := 0; j < d; j++ {
			z += float64(theta[j] * x[j])
		}
		return ml.Sigmoid(z + theta[d])
	}

	// Hessian H = (1/n) Σ p(1-p) x̃ x̃ᵀ + λ I (damped)
	n := train.Len()
	h := linalg.NewMatrix(dim, dim)
	for i := 0; i < n; i++ {
		x := aug(train.Row(i))
		p := sig(train.Row(i))
		w := p * (1 - p) / float64(n)
		for a := 0; a < dim; a++ {
			if x[a] == 0 {
				continue
			}
			linalg.AXPY(w*x[a], x, h.Row(a))
		}
	}
	h.AddScaledIdentity(l2)

	// validation gradient g_val = Σ_v (p_v − y_v) x̃_v (total, not mean —
	// scores then approximate the change in total validation loss)
	gval := make([]float64, dim)
	for v := 0; v < valid.Len(); v++ {
		p := sig(valid.Row(v))
		linalg.AXPY(p-float64(valid.Y[v]), aug(valid.Row(v)), gval)
	}
	// s = H⁻¹ g_val (one solve, then scores are dot products)
	s, err := linalg.SolveSPD(h, gval)
	if err != nil {
		s = linalg.ConjugateGradient(h, gval, 1e-10, 500)
	}
	scores := make(Scores, n)
	for i := 0; i < n; i++ {
		x := aug(train.Row(i))
		p := sig(train.Row(i))
		gi := make([]float64, dim)
		linalg.AXPY(p-float64(train.Y[i]), x, gi)
		// per-point ridge contribution: λ θ (weights only) / n
		for j := 0; j < d; j++ {
			gi[j] += l2 * theta[j] / float64(n)
		}
		scores[i] = linalg.Dot(s, gi) / float64(n)
	}
	return scores, nil
}
