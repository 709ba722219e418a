package ml

import (
	"fmt"
	"math"

	"nde/internal/linalg"
)

// LogisticRegression is a binary logistic-regression classifier trained with
// full-batch gradient descent and L2 regularization. Labels must be 0 or 1.
// Training is deterministic: fixed initialization at zero, fixed step
// schedule.
type LogisticRegression struct {
	LR     float64 // learning rate (default 0.5)
	Epochs int     // gradient steps (default 200)
	L2     float64 // ridge penalty on weights, not intercept (default 1e-4)

	weights   []float64
	intercept float64
}

// NewLogisticRegression returns a classifier with sensible defaults.
func NewLogisticRegression() *LogisticRegression {
	return &LogisticRegression{LR: 0.5, Epochs: 200, L2: 1e-4}
}

// Weights returns the learned weight vector (shared backing).
func (m *LogisticRegression) Weights() []float64 { return m.weights }

// Intercept returns the learned bias term.
func (m *LogisticRegression) Intercept() float64 { return m.intercept }

// Fit trains by full-batch gradient descent on the regularized log loss.
func (m *LogisticRegression) Fit(d *Dataset) error {
	if d.Len() == 0 {
		return fmt.Errorf("ml: logistic regression cannot fit an empty dataset")
	}
	for _, y := range d.Y {
		if y != 0 && y != 1 {
			return fmt.Errorf("ml: logistic regression requires binary 0/1 labels, got %d", y)
		}
	}
	lr, epochs, l2 := m.LR, m.Epochs, m.L2
	if lr <= 0 {
		lr = 0.5
	}
	if epochs <= 0 {
		epochs = 200
	}
	n, dim := d.Len(), d.Dim()
	w := make([]float64, dim)
	b := 0.0
	gw := make([]float64, dim)
	for e := 0; e < epochs; e++ {
		for i := range gw {
			gw[i] = 0
		}
		gb := 0.0
		for i := 0; i < n; i++ {
			p := Sigmoid(linalg.Dot(w, d.Row(i)) + b)
			err := p - float64(d.Y[i])
			linalg.AXPY(err, d.Row(i), gw)
			gb += err
		}
		inv := 1 / float64(n)
		step := lr / (1 + float64(0.01*float64(e))) // mild decay for stability
		for j := range w {
			w[j] -= float64(step * (float64(gw[j]*inv) + float64(l2*w[j])))
		}
		b -= float64(step * gb * inv)
	}
	m.weights, m.intercept = w, b
	return nil
}

// Proba returns [P(y=0), P(y=1)].
func (m *LogisticRegression) Proba(x []float64) []float64 {
	if m.weights == nil {
		panic("ml: Proba before Fit")
	}
	p := Sigmoid(linalg.Dot(m.weights, x) + m.intercept)
	return []float64{1 - p, p}
}

// Predict thresholds P(y=1) at 0.5.
func (m *LogisticRegression) Predict(x []float64) int {
	if m.Proba(x)[1] >= 0.5 {
		return 1
	}
	return 0
}

// Sigmoid is the numerically stable logistic function.
func Sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// LinearRegression is ridge regression solved in closed form, with an
// intercept handled by mean-centering.
type LinearRegression struct {
	L2 float64 // ridge penalty (default 1e-6)

	weights   []float64
	intercept float64
}

// FitXY trains on an explicit matrix and continuous targets.
func (m *LinearRegression) FitXY(x *linalg.Matrix, y []float64) error {
	if x.Rows == 0 {
		return fmt.Errorf("ml: linear regression cannot fit an empty dataset")
	}
	if x.Rows != len(y) {
		return fmt.Errorf("ml: %d rows vs %d targets", x.Rows, len(y))
	}
	l2 := m.L2
	if l2 <= 0 {
		l2 = 1e-6
	}
	// center targets and features so the intercept absorbs the means
	n, dim := x.Rows, x.Cols
	colMean := make([]float64, dim)
	for i := 0; i < n; i++ {
		linalg.AXPY(1, x.Row(i), colMean)
	}
	linalg.Scale(1/float64(n), colMean)
	yMean := 0.0
	for _, v := range y {
		yMean += v
	}
	yMean /= float64(n)
	xc := x.Clone()
	yc := make([]float64, n)
	for i := 0; i < n; i++ {
		linalg.AXPY(-1, colMean, xc.Row(i))
		yc[i] = y[i] - yMean
	}
	w, err := linalg.RidgeSolve(xc, yc, l2)
	if err != nil {
		return err
	}
	m.weights = w
	m.intercept = yMean - linalg.Dot(w, colMean)
	return nil
}

// Fit trains on a classification dataset by regressing the 0/1 labels
// (least-squares classification); Predict thresholds at 0.5.
func (m *LinearRegression) Fit(d *Dataset) error {
	y := make([]float64, d.Len())
	for i, v := range d.Y {
		y[i] = float64(v)
	}
	return m.FitXY(d.X, y)
}

// PredictValue returns the regression output for x.
func (m *LinearRegression) PredictValue(x []float64) float64 {
	if m.weights == nil {
		panic("ml: PredictValue before Fit")
	}
	return linalg.Dot(m.weights, x) + m.intercept
}

// Predict thresholds the regression output at 0.5 for 0/1 labels.
func (m *LinearRegression) Predict(x []float64) int {
	if m.PredictValue(x) >= 0.5 {
		return 1
	}
	return 0
}
