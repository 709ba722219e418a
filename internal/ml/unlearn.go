package ml

import (
	"fmt"
	"sort"

	"nde/internal/linalg"
	"nde/internal/nderr"
)

// This file implements low-latency machine unlearning — the §2.4 connection
// the tutorial draws between data debugging and the right-to-be-forgotten:
// debugging techniques repeatedly ask "what if these points were removed?",
// and unlearning answers it without full retraining (cf. HedgeCut, Schelter
// et al., SIGMOD 2021).

// normalizeUnlearnRows validates and canonicalizes an unlearn request
// against the alive mask. Every id is range-checked BEFORE any state
// changes, so a bad id mid-list can never leave a partially mutated model;
// repeated ids and already-dead rows are dropped, so nAlive is never
// double-decremented (the same bug class as the Challenge.Submit
// double-budget charge). Returns the sorted set of rows that will actually
// flip from alive to dead; an error means nothing changed.
func normalizeUnlearnRows(alive []bool, rows []int) ([]int, error) {
	for _, r := range rows {
		if r < 0 || r >= len(alive) {
			return nil, fmt.Errorf("ml: unlearn row %d outside [0,%d): %w", r, len(alive), nderr.ErrDegenerateInput)
		}
	}
	uniq := append([]int(nil), rows...)
	sort.Ints(uniq)
	uniq = dedupSorted(uniq)
	dead := uniq[:0]
	for _, r := range uniq {
		if alive[r] {
			dead = append(dead, r)
		}
	}
	return dead, nil
}

// UnlearnableLogReg is a logistic-regression classifier supporting
// *approximate* unlearning via a single Newton step: forgetting rows R
// updates θ ← θ + H⁻¹ Σ_{i∈R} ∇ℓ_i(θ), the influence-function update. The
// residual gradient norm after the update bounds the approximation error;
// when it exceeds Tolerance the model falls back to exact retraining, a
// certified-removal-style guardrail.
type UnlearnableLogReg struct {
	L2        float64 // ridge penalty (default 1e-3)
	Epochs    int     // epochs for (re)fitting (default 300)
	Tolerance float64 // max residual gradient norm before retraining (default 0.05)

	data     *Dataset
	alive    []bool
	nAlive   int
	theta    []float64 // weights ++ intercept
	retrains int
}

// NewUnlearnableLogReg returns an unlearnable logistic model with defaults.
func NewUnlearnableLogReg() *UnlearnableLogReg {
	return &UnlearnableLogReg{L2: 1e-3, Epochs: 300, Tolerance: 0.05}
}

// Retrains reports how many times unlearning fell back to full retraining.
func (m *UnlearnableLogReg) Retrains() int { return m.retrains }

func (m *UnlearnableLogReg) fitAlive() error {
	var idx []int
	for i, a := range m.alive {
		if a {
			idx = append(idx, i)
		}
	}
	inner := &LogisticRegression{LR: 0.5, Epochs: m.Epochs, L2: m.L2}
	if err := inner.Fit(m.data.Subset(idx)); err != nil {
		return err
	}
	m.theta = append(append([]float64(nil), inner.Weights()...), inner.Intercept())
	return nil
}

// Fit trains on the full dataset.
func (m *UnlearnableLogReg) Fit(d *Dataset) error {
	if m.L2 <= 0 {
		m.L2 = 1e-3
	}
	if m.Epochs <= 0 {
		m.Epochs = 300
	}
	if m.Tolerance <= 0 {
		m.Tolerance = 0.05
	}
	m.data = d
	m.alive = make([]bool, d.Len())
	for i := range m.alive {
		m.alive[i] = true
	}
	m.nAlive = d.Len()
	m.retrains = 0
	return m.fitAlive()
}

func (m *UnlearnableLogReg) margin(x []float64) float64 {
	d := len(m.theta) - 1
	z := m.theta[d]
	for j := 0; j < d; j++ {
		z += float64(m.theta[j] * x[j])
	}
	return z
}

// gradAt returns the mean regularized-loss gradient over the alive rows at
// the current parameters.
func (m *UnlearnableLogReg) gradAt() []float64 {
	dim := len(m.theta)
	d := dim - 1
	g := make([]float64, dim)
	for i := 0; i < m.data.Len(); i++ {
		if !m.alive[i] {
			continue
		}
		p := Sigmoid(m.margin(m.data.Row(i)))
		errv := p - float64(m.data.Y[i])
		for j := 0; j < d; j++ {
			g[j] += float64(errv * m.data.X.At(i, j))
		}
		g[d] += errv
	}
	inv := 1 / float64(m.nAlive)
	linalg.Scale(inv, g)
	for j := 0; j < d; j++ {
		g[j] += float64(m.L2 * m.theta[j])
	}
	return g
}

// Unlearn forgets the given rows via an influence-style Newton update and
// verifies the residual optimality gap, retraining when it is too large.
func (m *UnlearnableLogReg) Unlearn(rows []int) error {
	if m.data == nil {
		return fmt.Errorf("ml: Unlearn before Fit")
	}
	dead, err := normalizeUnlearnRows(m.alive, rows)
	if err != nil {
		return err
	}
	if len(dead) == 0 {
		return nil
	}
	if len(dead) == m.nAlive {
		return fmt.Errorf("ml: unlearning would empty the training set: %w", nderr.ErrEmptyInput)
	}
	for _, r := range dead {
		m.alive[r] = false
	}
	m.nAlive -= len(dead)
	// Newton step on the reduced objective from the current parameters
	dim := len(m.theta)
	d := dim - 1
	h := linalg.NewMatrix(dim, dim)
	xa := make([]float64, dim)
	for i := 0; i < m.data.Len(); i++ {
		if !m.alive[i] {
			continue
		}
		copy(xa, m.data.Row(i))
		xa[d] = 1
		p := Sigmoid(m.margin(m.data.Row(i)))
		w := p * (1 - p) / float64(m.nAlive)
		for a := 0; a < dim; a++ {
			if xa[a] == 0 {
				continue
			}
			linalg.AXPY(w*xa[a], xa, h.Row(a))
		}
	}
	h.AddScaledIdentity(m.L2)
	g := m.gradAt()
	step, err := linalg.SolveSPD(h, g)
	if err != nil {
		step = linalg.ConjugateGradient(h, g, 1e-10, 500)
	}
	linalg.AXPY(-1, step, m.theta)

	// guardrail: if the post-update gradient is still large, the quadratic
	// approximation was poor — retrain exactly
	if linalg.Norm2(m.gradAt()) > m.Tolerance {
		m.retrains++
		return m.fitAlive()
	}
	return nil
}

// Predict thresholds the logistic output at 0.5.
func (m *UnlearnableLogReg) Predict(x []float64) int {
	if m.theta == nil {
		panic("ml: Predict before Fit")
	}
	if m.margin(x) >= 0 {
		return 1
	}
	return 0
}

// Proba returns [P(y=0), P(y=1)].
func (m *UnlearnableLogReg) Proba(x []float64) []float64 {
	p := Sigmoid(m.margin(x))
	return []float64{1 - p, p}
}
