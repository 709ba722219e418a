package datagen

import (
	"fmt"
	"math/rand"
	"sort"

	"nde/internal/frame"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/nderr"
)

// InjectLabelErrors returns a copy of the frame with the string label column
// flipped between its two distinct values on a random fraction of rows,
// plus the set of corrupted row indices. This mirrors the tutorial's
// nde.inject_labelerrors(train_df, fraction=0.1).
func InjectLabelErrors(f *frame.Frame, labelCol string, fraction float64, seed int64) (*frame.Frame, map[int]bool, error) {
	col, err := f.Column(labelCol)
	if err != nil {
		return nil, nil, err
	}
	if fraction < 0 || fraction > 1 {
		return nil, nil, fmt.Errorf("datagen: fraction %v outside [0,1]", fraction)
	}
	distinct := col.Unique()
	if len(distinct) != 2 {
		return nil, nil, fmt.Errorf("datagen: label flipping needs a binary column, %q has %d values", labelCol, len(distinct))
	}
	out := f.Clone()
	ocol := out.MustColumn(labelCol)
	r := rand.New(rand.NewSource(seed))
	k := int(float64(f.NumRows()) * fraction)
	corrupted := make(map[int]bool, k)
	for _, i := range r.Perm(f.NumRows())[:k] {
		cur := ocol.Value(i)
		var flipped frame.Value
		if cur.Equal(distinct[0]) {
			flipped = distinct[1]
		} else {
			flipped = distinct[0]
		}
		if err := ocol.Set(i, flipped); err != nil {
			return nil, nil, err
		}
		corrupted[i] = true
	}
	return out, corrupted, nil
}

// FlipDatasetLabels flips the labels of a fraction of a dataset's rows and
// reports the corrupted indices. Binary labels (every label 0 or 1) flip
// to 1 - y. With more classes, a flipped row takes a label drawn
// uniformly from the other classes 0..NumClasses()-1, drawn after the
// rows are chosen, so the binary case consumes the same random stream it
// always has. A negative label is an error wrapping
// nderr.ErrDegenerateInput.
func FlipDatasetLabels(d *ml.Dataset, fraction float64, seed int64) (*ml.Dataset, map[int]bool, error) {
	if fraction < 0 || fraction > 1 {
		return nil, nil, fmt.Errorf("datagen: fraction %v outside [0,1]", fraction)
	}
	for i, y := range d.Y {
		if y < 0 {
			return nil, nil, fmt.Errorf("datagen: negative label %d at row %d: %w", y, i, nderr.ErrDegenerateInput)
		}
	}
	classes := d.NumClasses()
	out := d.Clone()
	r := rand.New(rand.NewSource(seed))
	k := int(float64(d.Len()) * fraction)
	corrupted := make(map[int]bool, k)
	for _, i := range r.Perm(d.Len())[:k] {
		if classes <= 2 {
			out.Y[i] = 1 - out.Y[i]
		} else if y := r.Intn(classes - 1); y < out.Y[i] {
			out.Y[i] = y
		} else {
			out.Y[i] = y + 1
		}
		corrupted[i] = true
	}
	return out, corrupted, nil
}

// MissingMechanism mirrors uncertain.Missingness for frame-level injection.
type MissingMechanism int

const (
	// MissingMCAR selects rows uniformly at random.
	MissingMCAR MissingMechanism = iota
	// MissingMAR selects rows by the value of another column (high values
	// of the first numeric column lose the target).
	MissingMAR
	// MissingMNAR selects the rows with the largest target values.
	MissingMNAR
)

// InjectMissing nulls out a fraction of one numeric column under the chosen
// mechanism and reports the affected row indices.
func InjectMissing(f *frame.Frame, col string, fraction float64, mech MissingMechanism, seed int64) (*frame.Frame, []int, error) {
	target, err := f.Column(col)
	if err != nil {
		return nil, nil, err
	}
	if target.Kind() != frame.KindFloat && target.Kind() != frame.KindInt {
		return nil, nil, fmt.Errorf("datagen: missing-value injection needs a numeric column, %q is %s", col, target.Kind())
	}
	if fraction < 0 || fraction > 1 {
		return nil, nil, fmt.Errorf("datagen: fraction %v outside [0,1]", fraction)
	}
	n := f.NumRows()
	k := int(float64(n) * fraction)
	r := rand.New(rand.NewSource(seed))
	idx := r.Perm(n)
	switch mech {
	case MissingMAR:
		other := firstNumericColumn(f, col)
		if other != "" {
			oc := f.MustColumn(other)
			sortIdxByDesc(idx, func(i int) float64 {
				if oc.IsNull(i) {
					return -1e18
				}
				return oc.Float(i)
			})
		}
	case MissingMNAR:
		sortIdxByDesc(idx, func(i int) float64 {
			if target.IsNull(i) {
				return -1e18
			}
			return target.Float(i)
		})
	}
	affected := append([]int(nil), idx[:k]...)
	out := f.Clone()
	ocol := out.MustColumn(col)
	for _, i := range affected {
		ocol.SetNull(i)
	}
	return out, affected, nil
}

func firstNumericColumn(f *frame.Frame, except string) string {
	for _, name := range f.ColumnNames() {
		if name == except {
			continue
		}
		k := f.MustColumn(name).Kind()
		if k == frame.KindFloat || k == frame.KindInt {
			return name
		}
	}
	return ""
}

func sortIdxByDesc(idx []int, key func(int) float64) {
	keys := make([]float64, len(idx))
	for o, i := range idx {
		keys[o] = key(i)
	}
	order := make([]int, len(idx))
	for o := range order {
		order[o] = o
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] > keys[order[b]] })
	sorted := make([]int, len(idx))
	for o, p := range order {
		sorted[o] = idx[p]
	}
	copy(idx, sorted)
}

// InjectOutliers multiplies a fraction of one numeric column by a large
// factor (alternating sign), simulating unit mistakes and sensor spikes.
func InjectOutliers(f *frame.Frame, col string, fraction, factor float64, seed int64) (*frame.Frame, []int, error) {
	target, err := f.Column(col)
	if err != nil {
		return nil, nil, err
	}
	if target.Kind() != frame.KindFloat {
		return nil, nil, fmt.Errorf("datagen: outlier injection needs a float column, %q is %s", col, target.Kind())
	}
	if fraction < 0 || fraction > 1 {
		return nil, nil, fmt.Errorf("datagen: fraction %v outside [0,1]", fraction)
	}
	n := f.NumRows()
	k := int(float64(n) * fraction)
	r := rand.New(rand.NewSource(seed))
	affected := append([]int(nil), r.Perm(n)[:k]...)
	out := f.Clone()
	ocol := out.MustColumn(col)
	for o, i := range affected {
		if ocol.IsNull(i) {
			continue
		}
		sign := 1.0
		if o%2 == 1 {
			sign = -1
		}
		if err := ocol.Set(i, frame.Float(ocol.Float(i)*factor*sign)); err != nil {
			return nil, nil, err
		}
	}
	return out, affected, nil
}

// BiasedSample returns a subsample of the frame where rows whose column
// equals value are kept with probability keepProb and all other rows are
// kept unconditionally — a programmable selection bias.
func BiasedSample(f *frame.Frame, col string, value frame.Value, keepProb float64, seed int64) (*frame.Frame, []int, error) {
	target, err := f.Column(col)
	if err != nil {
		return nil, nil, err
	}
	if keepProb < 0 || keepProb > 1 {
		return nil, nil, fmt.Errorf("datagen: keepProb %v outside [0,1]", keepProb)
	}
	r := rand.New(rand.NewSource(seed))
	kept, idx := f.Filter(func(row frame.Row) bool {
		if target.Value(row.Index()).Equal(value) {
			return r.Float64() < keepProb
		}
		return true
	})
	return kept, idx, nil
}

// AppendOOD appends k out-of-distribution rows to a dataset by sampling
// features far outside the observed range (scale times the per-feature
// spread) with random labels. It returns the extended dataset and the
// indices of the appended rows.
func AppendOOD(d *ml.Dataset, k int, scale float64, seed int64) (*ml.Dataset, []int) {
	r := rand.New(rand.NewSource(seed))
	n, dim := d.Len(), d.Dim()
	if n == 0 || k <= 0 {
		return d.Clone(), nil
	}
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for j := 0; j < dim; j++ {
		lo[j], hi[j] = d.X.At(0, j), d.X.At(0, j)
		for i := 1; i < n; i++ {
			v := d.X.At(i, j)
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	grown := linalg.NewMatrix(n+k, dim)
	copy(grown.Data[:n*dim], d.X.Data)
	y := append([]int(nil), d.Y...)
	for o := 0; o < k; o++ {
		row := grown.Row(n + o)
		for j := 0; j < dim; j++ {
			spread := hi[j] - lo[j]
			if spread == 0 {
				spread = 1
			}
			sign := 1.0
			if r.Intn(2) == 0 {
				sign = -1
			}
			row[j] = hi[j] + float64(sign*scale*spread*(0.5+float64(r.Float64())))
		}
		y = append(y, r.Intn(max(2, d.NumClasses())))
	}
	res, _ := ml.NewDataset(grown, y)
	appended := make([]int, k)
	for o := range appended {
		appended[o] = n + o
	}
	return res, appended
}
