// Package encode implements the feature encoders that ML pipelines apply to
// relational data before model training: imputation, scaling, one-hot
// encoding, and text vectorization (hashing
// bag-of-words and TF-IDF — the stand-ins for the heavyweight neural text
// encoders used in the tutorial's pipelines).
//
// An Encoder maps one column to a block of numeric feature columns; a
// ColumnTransformer composes encoders over several columns into a single
// feature matrix, mirroring scikit-learn's ColumnTransformer abstraction
// that the tutorial's Figure 3 pipeline uses.
package encode

import (
	"fmt"

	"nde/internal/frame"
	"nde/internal/linalg"
)

// Encoder turns one column into a fixed number of numeric feature columns.
// Fit learns the encoding from a column; Transform applies it to a column of
// the same kind (typically the same column of another split).
type Encoder interface {
	Fit(s *frame.Series) error
	Transform(s *frame.Series) (*linalg.Matrix, error)
	// Names returns one name per output feature column; valid after Fit.
	Names() []string
}

// StandardScaler standardizes a numeric column to zero mean and unit
// variance. Nulls are imputed with the fitted mean (i.e. transformed to 0).
type StandardScaler struct {
	name string
	mean float64
	std  float64
}

// NewStandardScaler returns an unfitted standard scaler.
func NewStandardScaler() *StandardScaler { return &StandardScaler{} }

// Fit learns the column mean and standard deviation.
func (e *StandardScaler) Fit(s *frame.Series) error {
	mean, ok := s.Mean()
	if !ok {
		return fmt.Errorf("encode: cannot scale column %q with no numeric values", s.Name())
	}
	std, _ := s.Std()
	if std == 0 {
		std = 1
	}
	e.name, e.mean, e.std = s.Name(), mean, std
	return nil
}

// Transform standardizes the column; nulls map to 0 (the scaled mean).
func (e *StandardScaler) Transform(s *frame.Series) (*linalg.Matrix, error) {
	if e.name == "" {
		return nil, fmt.Errorf("encode: StandardScaler used before Fit")
	}
	out := linalg.NewMatrix(s.Len(), 1)
	for i := 0; i < s.Len(); i++ {
		if s.IsNull(i) {
			continue // (mean - mean)/std = 0
		}
		out.Set(i, 0, (s.Float(i)-e.mean)/e.std)
	}
	return out, nil
}

// Names returns the single output feature name.
func (e *StandardScaler) Names() []string { return []string{e.name + "_scaled"} }

// OneHotEncoder maps a categorical column to indicator columns, one per
// category seen at fit time (in first-appearance order). Unknown categories
// and nulls encode as all zeros.
type OneHotEncoder struct {
	name       string
	categories []string
	index      map[string]int
}

// NewOneHotEncoder returns an unfitted one-hot encoder.
func NewOneHotEncoder() *OneHotEncoder { return &OneHotEncoder{} }

// Fit collects the distinct category strings.
func (e *OneHotEncoder) Fit(s *frame.Series) error {
	e.name = s.Name()
	e.index = make(map[string]int)
	e.categories = nil
	for _, v := range s.Unique() {
		key := v.String()
		if _, seen := e.index[key]; !seen {
			e.index[key] = len(e.categories)
			e.categories = append(e.categories, key)
		}
	}
	if len(e.categories) == 0 {
		return fmt.Errorf("encode: one-hot column %q has no non-null values", s.Name())
	}
	return nil
}

// Transform emits one indicator column per fitted category.
func (e *OneHotEncoder) Transform(s *frame.Series) (*linalg.Matrix, error) {
	if e.index == nil {
		return nil, fmt.Errorf("encode: OneHotEncoder used before Fit")
	}
	out := linalg.NewMatrix(s.Len(), len(e.categories))
	for i := 0; i < s.Len(); i++ {
		if s.IsNull(i) {
			continue
		}
		if j, ok := e.index[s.Value(i).String()]; ok {
			out.Set(i, j, 1)
		}
	}
	return out, nil
}

// Names returns "<col>=<category>" per output column.
func (e *OneHotEncoder) Names() []string {
	names := make([]string, len(e.categories))
	for i, c := range e.categories {
		names[i] = e.name + "=" + c
	}
	return names
}
