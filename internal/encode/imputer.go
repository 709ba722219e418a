package encode

import (
	"fmt"
	"sort"

	"nde/internal/frame"
	"nde/internal/nderr"
)

// ImputeStrategy selects how an Imputer fills nulls.
type ImputeStrategy int

const (
	// ImputeMean fills numeric nulls with the fitted column mean.
	ImputeMean ImputeStrategy = iota
	// ImputeMedian fills numeric nulls with the fitted column median.
	ImputeMedian
	// ImputeMode fills nulls with the fitted most frequent value (any kind).
	ImputeMode
	// ImputeConstant fills nulls with a user-supplied value.
	ImputeConstant
)

// String returns the strategy name.
func (s ImputeStrategy) String() string {
	switch s {
	case ImputeMean:
		return "mean"
	case ImputeMedian:
		return "median"
	case ImputeMode:
		return "mode"
	case ImputeConstant:
		return "constant"
	}
	return "unknown"
}

// Imputer is a column-to-column transform that replaces nulls with a fitted
// statistic. Unlike the Encoders in this package, it outputs a Series so it
// can be chained in front of another encoder (the Pipeline([Imputer(),
// OneHotEncoder()]) construction of the tutorial's Figure 3).
type Imputer struct {
	Strategy ImputeStrategy
	Constant frame.Value // used by ImputeConstant

	fill   frame.Value
	fitted bool
}

// NewImputer returns an imputer with the given strategy.
func NewImputer(strategy ImputeStrategy) *Imputer { return &Imputer{Strategy: strategy} }

// Fit learns the fill value from the non-null entries of s.
func (e *Imputer) Fit(s *frame.Series) error {
	switch e.Strategy {
	case ImputeMean:
		m, ok := s.Mean()
		if !ok {
			return fmt.Errorf("encode: cannot impute mean of column %q with no numeric values: %w", s.Name(), nderr.ErrEmptyInput)
		}
		e.fill = frame.Float(m)
	case ImputeMedian:
		med, ok := seriesMedian(s)
		if !ok {
			return fmt.Errorf("encode: cannot impute median of column %q with no numeric values: %w", s.Name(), nderr.ErrEmptyInput)
		}
		e.fill = frame.Float(med)
	case ImputeMode:
		m, ok := s.Mode()
		if !ok {
			return fmt.Errorf("encode: cannot impute mode of column %q with no values: %w", s.Name(), nderr.ErrEmptyInput)
		}
		e.fill = m
	case ImputeConstant:
		if e.Constant.IsNull() {
			return fmt.Errorf("encode: constant imputer needs a non-null Constant")
		}
		e.fill = e.Constant
	default:
		return fmt.Errorf("encode: unknown impute strategy %d", e.Strategy)
	}
	e.fitted = true
	return nil
}

// Transform returns a copy of s with nulls replaced by the fitted value.
func (e *Imputer) Transform(s *frame.Series) (*frame.Series, error) {
	if !e.fitted {
		return nil, fmt.Errorf("encode: Imputer used before Fit")
	}
	out := s.Clone()
	for i := 0; i < out.Len(); i++ {
		if out.IsNull(i) {
			if err := out.Set(i, e.fill); err != nil {
				return nil, fmt.Errorf("encode: imputing column %q: %w", s.Name(), err)
			}
		}
	}
	return out, nil
}

// FitTransform fits on s and transforms it in one call.
func (e *Imputer) FitTransform(s *frame.Series) (*frame.Series, error) {
	if err := e.Fit(s); err != nil {
		return nil, err
	}
	return e.Transform(s)
}

func seriesMedian(s *frame.Series) (float64, bool) {
	var vals []float64
	for i := 0; i < s.Len(); i++ {
		if s.IsNull(i) {
			continue
		}
		switch s.Kind() {
		case frame.KindInt, frame.KindFloat:
			vals = append(vals, s.Float(i))
		default:
			return 0, false
		}
	}
	if len(vals) == 0 {
		return 0, false
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid], true
	}
	return (vals[mid-1] + vals[mid]) / 2, true
}
