package uncertain

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nde/internal/ml"
)

func TestCertainPredictionNoUncertainty(t *testing.T) {
	train := blobs(40, 3, 41)
	c := NewCPClean(3)
	label, certain, err := c.CertainPrediction(NewSymbolic(train), []float64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !certain || label != 1 {
		t.Errorf("deep class-1 point: label=%d certain=%v", label, certain)
	}
}

func TestCertainPredictionWithWideUncertainty(t *testing.T) {
	train := blobs(20, 2, 42)
	s := NewSymbolic(train)
	// make half the points completely uncertain across the whole space
	for i := 0; i < 10; i++ {
		s.SetUncertain(i, 0, -10, 10)
		s.SetUncertain(i, 1, -10, 10)
	}
	c := NewCPClean(5)
	_, certain, err := c.CertainPrediction(s, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if certain {
		t.Error("a boundary point with huge uncertainty should not be certain")
	}
}

func TestCertainPredictionErrors(t *testing.T) {
	train := blobs(10, 2, 43)
	s := NewSymbolic(train)
	if _, _, err := NewCPClean(0).CertainPrediction(s, []float64{0, 0}); err == nil {
		t.Error("expected error for k=0")
	}
	if _, _, err := NewCPClean(3).CertainPrediction(s, []float64{0}); err == nil {
		t.Error("expected error for dim mismatch")
	}
	empty := &SymbolicDataset{}
	if _, _, err := NewCPClean(3).CertainPrediction(empty, nil); err == nil {
		t.Error("expected error for empty train")
	}
}

// Property: the certainty check is sound — when CPClean declares a
// prediction certain, every sampled possible world's concrete kNN agrees.
func TestQuickCertaintySound(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 6 + r.Intn(10)
		train := blobs(n, 1.5, seed)
		s := NewSymbolic(train)
		for i := 0; i < n; i++ {
			if r.Float64() < 0.3 {
				col := r.Intn(2)
				c := s.Cells[i][col].Lo
				s.SetUncertain(i, col, c-r.Float64()*2, c+r.Float64()*2)
			}
		}
		x := []float64{r.NormFloat64() * 2, r.NormFloat64() * 2}
		c := NewCPClean(1 + r.Intn(3))
		label, certain, err := c.CertainPrediction(s, x)
		if err != nil {
			return false
		}
		if !certain {
			return true // nothing claimed, nothing to verify
		}
		for trial := 0; trial < 30; trial++ {
			world := s.SampleWorld(r)
			m := ml.NewKNN(c.K)
			if err := m.Fit(world); err != nil {
				return false
			}
			if m.Predict(x) != label {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCertainFraction(t *testing.T) {
	train := blobs(30, 3, 44)
	s := NewSymbolic(train)
	testX := [][]float64{{3, 3}, {-3, -3}, {2.5, 3.5}}
	frac, flags, err := NewCPClean(3).CertainFraction(s, testX)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 1 {
		t.Errorf("all-certain fraction = %v (flags %v)", frac, flags)
	}
	frac, _, err = NewCPClean(3).CertainFraction(s, nil)
	if err != nil || frac != 0 {
		t.Error("empty test set should give 0")
	}
}

func TestCertainFractionDropsWithMissingness(t *testing.T) {
	train := blobs(60, 2, 45)
	test := blobs(30, 2, 46)
	testX := make([][]float64, test.Len())
	for i := range testX {
		testX[i] = test.Row(i)
	}
	c := NewCPClean(3)
	var fracs []float64
	for _, pct := range []float64{0, 0.2, 0.5} {
		s, _, err := EncodeSymbolic(train, 0, pct, MCAR, 47)
		if err != nil {
			t.Fatal(err)
		}
		frac, _, err := c.CertainFraction(s, testX)
		if err != nil {
			t.Fatal(err)
		}
		fracs = append(fracs, frac)
	}
	if !(fracs[0] >= fracs[1] && fracs[1] >= fracs[2]) {
		t.Errorf("certain fraction should fall with missingness: %v", fracs)
	}
	if fracs[0] != 1 {
		t.Errorf("zero missingness should be fully certain, got %v", fracs[0])
	}
}

func TestGreedyCleanImprovesCertainty(t *testing.T) {
	train := blobs(30, 2.5, 48)
	s, _, err := EncodeSymbolic(train, 0, 0.3, MCAR, 49)
	if err != nil {
		t.Fatal(err)
	}
	test := blobs(15, 2.5, 50)
	testX := make([][]float64, test.Len())
	for i := range testX {
		testX[i] = test.Row(i)
	}
	c := NewCPClean(3)
	before, _, err := c.CertainFraction(s, testX)
	if err != nil {
		t.Fatal(err)
	}
	repaired, fractions, err := c.GreedyClean(s, testX, 5)
	if err != nil {
		t.Fatal(err)
	}
	if before == 1 {
		if len(repaired) != 0 {
			t.Error("nothing to repair when already certain")
		}
		return
	}
	if len(fractions) == 0 {
		t.Fatal("no repairs made despite uncertainty")
	}
	if fractions[len(fractions)-1] < before {
		t.Errorf("cleaning decreased certainty: %v -> %v", before, fractions)
	}
	// fractions should be non-decreasing (greedy picks the best each step)
	for i := 1; i < len(fractions); i++ {
		if fractions[i] < fractions[i-1]-1e-9 {
			t.Errorf("fractions not monotone: %v", fractions)
		}
	}
	// GreedyClean must not mutate its input
	if s.UncertainCells() != 9 {
		t.Errorf("input mutated: %d uncertain cells", s.UncertainCells())
	}
}

func TestVoteOutcomeDeterministicTies(t *testing.T) {
	c := NewCPClean(2)
	labels := []int{1, 0}
	// equal distances: tie in votes -> label 0 wins
	if got := c.voteOutcome([]float64{1, 1}, labels); got != 0 {
		t.Errorf("tie vote = %d, want 0", got)
	}
}

func TestEnumerateWorlds(t *testing.T) {
	train := blobs(30, 2.5, 51)
	test := blobs(10, 2.5, 52)
	// two uncertain labels -> 4 worlds
	unc := []DiscreteUncertainty{
		{Row: 0, Col: -1, Candidates: []float64{0, 1}},
		{Row: 1, Col: -1, Candidates: []float64{0, 1}},
	}
	res, err := EnumerateWorlds(train, unc, test, func() ml.Classifier { return ml.NewKNN(3) }, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Worlds != 4 {
		t.Errorf("worlds = %d", res.Worlds)
	}
	if res.AccuracyRange.Lo > res.AccuracyRange.Hi {
		t.Errorf("accuracy range = %v", res.AccuracyRange)
	}
	for i, set := range res.PredictionSets {
		if len(set) == 0 {
			t.Errorf("empty prediction set at %d", i)
		}
		if res.Consistent[i] != (len(set) == 1) {
			t.Errorf("consistency flag mismatch at %d", i)
		}
	}
}

func TestEnumerateWorldsCaps(t *testing.T) {
	train := blobs(10, 2, 53)
	test := blobs(5, 2, 54)
	var unc []DiscreteUncertainty
	for i := 0; i < 12; i++ {
		unc = append(unc, DiscreteUncertainty{Row: i % 10, Col: -1, Candidates: []float64{0, 1}})
	}
	if _, err := EnumerateWorlds(train, unc, test, func() ml.Classifier { return ml.NewKNN(1) }, 100); err == nil {
		t.Error("expected error for too many worlds")
	}
	bad := []DiscreteUncertainty{{Row: 0, Col: -1}}
	if _, err := EnumerateWorlds(train, bad, test, func() ml.Classifier { return ml.NewKNN(1) }, 10); err == nil {
		t.Error("expected error for empty candidates")
	}
}
