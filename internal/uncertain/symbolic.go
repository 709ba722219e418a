package uncertain

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"nde/internal/linalg"
	"nde/internal/ml"
)

// SymbolicDataset is a training set whose feature cells are intervals —
// the symbolic representation that Zorro-style analyses propagate through
// training. Labels remain certain (label uncertainty can be modeled by
// enumerating worlds; see worlds.go).
type SymbolicDataset struct {
	Cells [][]Interval // [row][feature]
	Y     []int
}

// NewSymbolic wraps a concrete dataset as all-point intervals.
func NewSymbolic(d *ml.Dataset) *SymbolicDataset {
	cells := make([][]Interval, d.Len())
	for i := range cells {
		row := d.Row(i)
		cells[i] = make([]Interval, len(row))
		for j, v := range row {
			cells[i][j] = Point(v)
		}
	}
	return &SymbolicDataset{Cells: cells, Y: append([]int(nil), d.Y...)}
}

// Len returns the number of rows.
func (s *SymbolicDataset) Len() int { return len(s.Cells) }

// Dim returns the feature dimensionality (0 for an empty dataset).
func (s *SymbolicDataset) Dim() int {
	if len(s.Cells) == 0 {
		return 0
	}
	return len(s.Cells[0])
}

// SetUncertain replaces cell (row, col) with the interval [lo, hi].
func (s *SymbolicDataset) SetUncertain(row, col int, lo, hi float64) {
	s.Cells[row][col] = NewInterval(lo, hi)
}

// MarkMissing replaces the cells at the given rows of one feature with the
// interval [lo, hi] — the symbolic encoding of missing values whose true
// value is only known to lie in the feature's domain.
func (s *SymbolicDataset) MarkMissing(rows []int, col int, lo, hi float64) {
	for _, r := range rows {
		s.SetUncertain(r, col, lo, hi)
	}
}

// Center returns the concrete dataset at the box centers — the "impute with
// the midpoint" baseline world.
func (s *SymbolicDataset) Center() *ml.Dataset {
	x := linalg.NewMatrix(s.Len(), s.Dim())
	for i, row := range s.Cells {
		for j, c := range row {
			x.Set(i, j, c.Center())
		}
	}
	d, _ := ml.NewDataset(x, append([]int(nil), s.Y...))
	return d
}

// SampleWorld returns one concrete completion, drawing every uncertain cell
// uniformly from its interval.
func (s *SymbolicDataset) SampleWorld(r *rand.Rand) *ml.Dataset {
	x := linalg.NewMatrix(s.Len(), s.Dim())
	for i, row := range s.Cells {
		for j, c := range row {
			if c.IsPoint() {
				x.Set(i, j, c.Lo)
			} else {
				x.Set(i, j, c.Lo+float64(r.Float64()*c.Width()))
			}
		}
	}
	d, _ := ml.NewDataset(x, append([]int(nil), s.Y...))
	return d
}

// CornerWorld returns the completion that sets every uncertain cell to its
// lower (corner bit 0) or upper (corner bit 1) endpoint according to the
// supplied choice function — used by adversarial searches.
func (s *SymbolicDataset) CornerWorld(hi func(row, col int) bool) *ml.Dataset {
	x := linalg.NewMatrix(s.Len(), s.Dim())
	for i, row := range s.Cells {
		for j, c := range row {
			if hi(i, j) {
				x.Set(i, j, c.Hi)
			} else {
				x.Set(i, j, c.Lo)
			}
		}
	}
	d, _ := ml.NewDataset(x, append([]int(nil), s.Y...))
	return d
}

// Missingness selects the mechanism used by EncodeSymbolic to choose which
// rows lose their value.
type Missingness int

const (
	// MCAR: missing completely at random — uniform over rows.
	MCAR Missingness = iota
	// MAR: missing at random — probability depends on another observed
	// feature (rows with high first-feature values lose the target).
	MAR
	// MNAR: missing not at random — probability depends on the value
	// itself (the largest values go missing), the hardest mechanism.
	MNAR
)

// String names the mechanism.
func (m Missingness) String() string {
	switch m {
	case MCAR:
		return "MCAR"
	case MAR:
		return "MAR"
	case MNAR:
		return "MNAR"
	}
	return "unknown"
}

// EncodeSymbolic converts a concrete dataset into a symbolic one by marking
// a fraction of one feature's cells as missing under the chosen
// missingness mechanism, bounding each missing cell by the feature's
// observed [min, max] range. This mirrors the tutorial's Figure-4 API
// (nde.encode_symbolic(..., missing_percentage, missingness="MNAR")).
func EncodeSymbolic(d *ml.Dataset, feature int, fraction float64, mech Missingness, seed int64) (*SymbolicDataset, []int, error) {
	if feature < 0 || feature >= d.Dim() {
		return nil, nil, fmt.Errorf("uncertain: feature %d out of range [0,%d)", feature, d.Dim())
	}
	if fraction < 0 || fraction > 1 {
		return nil, nil, fmt.Errorf("uncertain: fraction %v outside [0,1]", fraction)
	}
	n := d.Len()
	k := int(math.Round(float64(n) * fraction))
	r := rand.New(rand.NewSource(seed))

	// rank rows by the mechanism's propensity
	idx := r.Perm(n)
	switch mech {
	case MAR:
		other := 0
		if feature == 0 && d.Dim() > 1 {
			other = 1
		}
		sortByDesc(idx, func(i int) float64 { return d.X.At(i, other) })
	case MNAR:
		sortByDesc(idx, func(i int) float64 { return d.X.At(i, feature) })
	}
	missing := idx[:k]

	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		v := d.X.At(i, feature)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo > hi { // empty dataset
		lo, hi = 0, 0
	}
	s := NewSymbolic(d)
	s.MarkMissing(missing, feature, lo, hi)
	return s, missing, nil
}

func sortByDesc(idx []int, key func(int) float64) {
	// stable keeps the initial shuffled order among ties, for determinism
	sort.SliceStable(idx, func(a, b int) bool { return key(idx[a]) > key(idx[b]) })
}
