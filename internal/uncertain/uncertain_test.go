package uncertain

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"nde/internal/linalg"
	"nde/internal/ml"
)

func blobs(n int, sep float64, seed int64) *ml.Dataset {
	r := rand.New(rand.NewSource(seed))
	x := linalg.NewMatrix(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		y[i] = c
		sign := float64(2*c - 1)
		x.Set(i, 0, sign*sep+r.NormFloat64())
		x.Set(i, 1, sign*sep+r.NormFloat64())
	}
	d, _ := ml.NewDataset(x, y)
	return d
}

func TestNewSymbolicRoundTrip(t *testing.T) {
	d := blobs(10, 2, 1)
	s := NewSymbolic(d)
	if s.Len() != 10 || s.Dim() != 2 || s.UncertainCells() != 0 {
		t.Fatalf("symbolic header wrong: %d %d %d", s.Len(), s.Dim(), s.UncertainCells())
	}
	c := s.Center()
	if !slices.Equal(c.X.Data, d.X.Data) {
		t.Error("center of all-point symbolic should equal original")
	}
}

func TestSetUncertainAndSampleWorld(t *testing.T) {
	d := blobs(10, 2, 2)
	s := NewSymbolic(d)
	s.SetUncertain(0, 0, -5, 5)
	s.SetUncertain(3, 1, 0, 1)
	if s.UncertainCells() != 2 {
		t.Errorf("uncertain cells = %d", s.UncertainCells())
	}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		w := s.SampleWorld(r)
		v := w.X.At(0, 0)
		if v < -5 || v > 5 {
			t.Errorf("sampled value %v outside interval", v)
		}
		// certain cells unchanged
		if w.X.At(1, 0) != d.X.At(1, 0) {
			t.Error("certain cell changed in sampled world")
		}
	}
	lo := s.CornerWorld(func(r, c int) bool { return false })
	hi := s.CornerWorld(func(r, c int) bool { return true })
	if lo.X.At(0, 0) != -5 || hi.X.At(0, 0) != 5 {
		t.Error("corner worlds wrong")
	}
}

func TestEncodeSymbolicMechanisms(t *testing.T) {
	d := blobs(100, 2, 4)
	for _, mech := range []Missingness{MCAR, MAR, MNAR} {
		s, missing, err := EncodeSymbolic(d, 0, 0.2, mech, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(missing) != 20 {
			t.Errorf("%v: %d missing, want 20", mech, len(missing))
		}
		if s.UncertainCells() != 20 {
			t.Errorf("%v: %d uncertain cells", mech, s.UncertainCells())
		}
	}
	// MNAR targets the largest values of the feature itself
	s, missing, err := EncodeSymbolic(d, 0, 0.1, MNAR, 7)
	if err != nil {
		t.Fatal(err)
	}
	_ = s
	minMissing := math.Inf(1)
	for _, i := range missing {
		minMissing = math.Min(minMissing, d.X.At(i, 0))
	}
	// every missing value should be above the feature median
	above := 0
	for i := 0; i < d.Len(); i++ {
		if d.X.At(i, 0) < minMissing {
			above++
		}
	}
	if above < d.Len()/2 {
		t.Errorf("MNAR did not target large values (%d below cutoff)", above)
	}
	if _, _, err := EncodeSymbolic(d, 9, 0.1, MCAR, 1); err == nil {
		t.Error("expected error for bad feature")
	}
	if _, _, err := EncodeSymbolic(d, 0, 1.5, MCAR, 1); err == nil {
		t.Error("expected error for bad fraction")
	}
	if MCAR.String() != "MCAR" || MNAR.String() != "MNAR" || MAR.String() != "MAR" {
		t.Error("mechanism names wrong")
	}
}

func TestZorroAnalyze(t *testing.T) {
	train := blobs(80, 2.5, 11)
	test := blobs(40, 2.5, 12)
	sym, _, err := EncodeSymbolic(train, 0, 0.15, MNAR, 13)
	if err != nil {
		t.Fatal(err)
	}
	z := &Zorro{Worlds: 10, Seed: 1}
	res, err := z.Analyze(sym, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ProbaRanges) != test.Len() {
		t.Fatalf("ranges = %d", len(res.ProbaRanges))
	}
	for i, rg := range res.ProbaRanges {
		if rg.Lo < 0 || rg.Hi > 1 || rg.Lo > rg.Hi {
			t.Errorf("range %d = %v", i, rg)
		}
		// sound range must contain the sampled range
		srg := res.SoundProbaRanges[i]
		if srg.Lo > rg.Lo+1e-9 || srg.Hi < rg.Hi-1e-9 {
			t.Errorf("sound range %v does not contain sampled %v", srg, rg)
		}
		// sound certainty implies sampled certainty
		if res.CertainSound[i] && !res.Certain[i] {
			t.Errorf("point %d: sound-certain but samples disagree", i)
		}
	}
	if res.SoundLossBound < res.WorstCaseLoss-1e-9 {
		t.Errorf("sound bound %v below sampled worst case %v", res.SoundLossBound, res.WorstCaseLoss)
	}
	if res.ParamRadius <= 0 {
		t.Errorf("param radius = %v", res.ParamRadius)
	}
}

func TestZorroNoUncertaintyIsTight(t *testing.T) {
	train := blobs(60, 3, 21)
	test := blobs(30, 3, 22)
	z := &Zorro{Worlds: 5, Seed: 2}
	res, err := z.Analyze(NewSymbolic(train), test)
	if err != nil {
		t.Fatal(err)
	}
	for i, rg := range res.ProbaRanges {
		if rg.Width() > 1e-12 {
			t.Errorf("point %d: nonzero range %v without uncertainty", i, rg)
		}
		if !res.Certain[i] {
			t.Errorf("point %d uncertain without data uncertainty", i)
		}
	}
	if res.ParamRadius != 0 {
		t.Errorf("param radius %v without uncertainty", res.ParamRadius)
	}
}

func TestZorroErrors(t *testing.T) {
	d := blobs(10, 2, 1)
	z := &Zorro{}
	if _, err := z.Analyze(NewSymbolic(d), &ml.Dataset{X: linalg.NewMatrix(0, 2)}); err == nil {
		t.Error("expected error for empty test")
	}
	d3 := &ml.Dataset{X: linalg.NewMatrix(5, 3), Y: []int{0, 1, 0, 1, 0}}
	if _, err := z.Analyze(NewSymbolic(d), d3); err == nil {
		t.Error("expected error for dim mismatch")
	}
}

// Property: the sound prediction ranges contain the predictions of models
// trained on every corner world (exhaustive over up to 2^4 corners). The
// strong-convexity bound covers every completion, so corner worlds — where
// extremes are attained for linear forms — must fall inside.
func TestQuickZorroSoundRangeContainsCorners(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		train := blobs(30, 2, seed)
		test := blobs(8, 2, seed+1)
		sym := NewSymbolic(train)
		nUnc := 1 + r.Intn(4)
		type cell struct{ row, col int }
		cells := make([]cell, nUnc)
		for u := 0; u < nUnc; u++ {
			c := cell{r.Intn(train.Len()), r.Intn(2)}
			cells[u] = c
			center := train.X.At(c.row, c.col)
			radius := 0.5 + r.Float64()
			sym.SetUncertain(c.row, c.col, center-radius, center+radius)
		}
		z := &Zorro{Worlds: 3, Seed: seed}
		res, err := z.Analyze(sym, test)
		if err != nil {
			return false
		}
		for mask := 0; mask < 1<<nUnc; mask++ {
			world := sym.CornerWorld(func(row, col int) bool {
				for u, c := range cells {
					if c.row == row && c.col == col {
						return mask&(1<<u) != 0
					}
				}
				return false
			})
			m := &ml.LogisticRegression{LR: 0.5, Epochs: 200, L2: 0.1}
			if err := m.Fit(world); err != nil {
				return false
			}
			for i := 0; i < test.Len(); i++ {
				p := m.Proba(test.Row(i))[1]
				rg := res.SoundProbaRanges[i]
				if p < rg.Lo-0.02 || p > rg.Hi+0.02 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// UncertainCells counts the cells that are not points.
func (s *SymbolicDataset) UncertainCells() int {
	n := 0
	for _, row := range s.Cells {
		for _, c := range row {
			if !c.IsPoint() {
				n++
			}
		}
	}
	return n
}
