// Package ml implements the machine-learning substrate of nde: feature-
// matrix datasets, a family of classifiers and regressors trained from
// scratch (k-nearest neighbors, logistic and linear regression, decision
// trees and random forests), model-quality metrics — including the
// fairness and stability metrics of the tutorial's Figure 1 — and
// deterministic data splits. Everything is seeded and reproducible.
package ml

import (
	"fmt"

	"nde/internal/linalg"
	"nde/internal/nderr"
)

// Dataset pairs a dense feature matrix with integer class labels and an
// optional protected-group attribute per row (used by fairness metrics).
type Dataset struct {
	X      *linalg.Matrix
	Y      []int
	Groups []string // optional; empty or len == rows
}

// NewDataset validates shapes and feature finiteness and builds a dataset.
// NaN or ±Inf features are rejected with an error wrapping
// nderr.ErrNonFinite: every distance, dot product, and ranking downstream
// silently corrupts on non-finite values, so they stop at this boundary.
func NewDataset(x *linalg.Matrix, y []int) (*Dataset, error) {
	if x == nil {
		return nil, nderr.Empty("ml: nil feature matrix")
	}
	if x.Rows != len(y) {
		return nil, fmt.Errorf("ml: %d feature rows vs %d labels: %w", x.Rows, len(y), nderr.ErrShapeMismatch)
	}
	for i, v := range y {
		if v < 0 {
			return nil, fmt.Errorf("ml: negative label %d at row %d: %w", v, i, nderr.ErrDegenerateInput)
		}
	}
	if err := x.CheckFinite("features"); err != nil {
		return nil, fmt.Errorf("ml: %w", err)
	}
	return &Dataset{X: x, Y: y}, nil
}

// CheckFinite re-validates the feature matrix of a dataset that may have
// been mutated (or literal-constructed) after NewDataset.
func (d *Dataset) CheckFinite() error {
	if d == nil || d.X == nil {
		return nderr.Empty("ml: nil dataset")
	}
	return d.X.CheckFinite("features")
}

// CheckTrainable reports whether d can serve as a training set for the
// importance and learning methods: non-nil, non-empty, finite features, and
// at least two label classes. Violations return wrapped nderr sentinels.
func (d *Dataset) CheckTrainable(what string) error {
	if d == nil || d.X == nil {
		return nderr.Empty("ml: " + what + " is nil")
	}
	if d.Len() == 0 {
		return nderr.Empty("ml: " + what + " has no rows")
	}
	if err := d.X.CheckFinite(what + " features"); err != nil {
		return fmt.Errorf("ml: %w", err)
	}
	first := d.Y[0]
	single := true
	for _, y := range d.Y[1:] {
		if y != first {
			single = false
			break
		}
	}
	if single {
		return nderr.SingleClass("ml: "+what, d.Len())
	}
	return nil
}

// WithGroups attaches a protected-group attribute; its length must match.
func (d *Dataset) WithGroups(groups []string) (*Dataset, error) {
	if len(groups) != d.Len() {
		return nil, fmt.Errorf("ml: %d groups vs %d rows", len(groups), d.Len())
	}
	return &Dataset{X: d.X, Y: d.Y, Groups: groups}, nil
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Y) }

// Dim returns the feature dimensionality.
func (d *Dataset) Dim() int { return d.X.Cols }

// Row returns the feature vector of example i (shared backing).
func (d *Dataset) Row(i int) []float64 { return d.X.Row(i) }

// NumClasses returns 1 + the maximum label (labels are 0..k-1).
func (d *Dataset) NumClasses() int {
	k := 0
	for _, y := range d.Y {
		if y+1 > k {
			k = y + 1
		}
	}
	return k
}

// Subset returns a dataset with the rows at the given indices, in order.
func (d *Dataset) Subset(idx []int) *Dataset {
	x := linalg.NewMatrix(len(idx), d.Dim())
	y := make([]int, len(idx))
	var groups []string
	if len(d.Groups) > 0 {
		groups = make([]string, len(idx))
	}
	for o, i := range idx {
		copy(x.Row(o), d.Row(i))
		y[o] = d.Y[i]
		if groups != nil {
			groups[o] = d.Groups[i]
		}
	}
	return &Dataset{X: x, Y: y, Groups: groups}
}

// Without returns the dataset with the given rows removed, plus the mapping
// from new row index to original row index.
func (d *Dataset) Without(remove map[int]bool) (*Dataset, []int) {
	var idx []int
	for i := 0; i < d.Len(); i++ {
		if !remove[i] {
			idx = append(idx, i)
		}
	}
	return d.Subset(idx), idx
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	return &Dataset{
		X:      d.X.Clone(),
		Y:      append([]int(nil), d.Y...),
		Groups: append([]string(nil), d.Groups...),
	}
}

// Classifier is a model that learns to map feature vectors to class labels.
type Classifier interface {
	// Fit trains the model on d, replacing any previous state.
	Fit(d *Dataset) error
	// Predict returns the predicted label for one feature vector.
	Predict(x []float64) int
}

// ProbabilisticClassifier additionally exposes class-probability estimates.
type ProbabilisticClassifier interface {
	Classifier
	// Proba returns one probability per class, summing to 1.
	Proba(x []float64) []float64
}

// PredictAll applies the classifier to every row of d.
func PredictAll(c Classifier, d *Dataset) []int {
	out := make([]int, d.Len())
	for i := range out {
		out[i] = c.Predict(d.Row(i))
	}
	return out
}

// EvaluateAccuracy trains a fresh fit of c on train and returns its accuracy
// on test. This is the utility function U(S) at the heart of all data-
// importance methods.
func EvaluateAccuracy(c Classifier, train, test *Dataset) (float64, error) {
	if train.Len() == 0 {
		// an untrained model predicts the empty-prior class 0
		correct := 0
		for _, y := range test.Y {
			if y == 0 {
				correct++
			}
		}
		return float64(correct) / float64(max(1, test.Len())), nil
	}
	if err := c.Fit(train); err != nil {
		return 0, err
	}
	return Accuracy(test.Y, PredictAll(c, test)), nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
