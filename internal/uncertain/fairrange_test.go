package uncertain

import (
	"math/rand"
	"testing"

	"nde/internal/linalg"
	"nde/internal/ml"
)

// groupedBlobs builds blobs where group membership is feature 2 and the
// validation set carries the groups.
func groupedBlobs(n int, sep float64, seed int64) *ml.Dataset {
	r := rand.New(rand.NewSource(seed))
	x := linalg.NewMatrix(n, 3)
	y := make([]int, n)
	groups := make([]string, n)
	for i := 0; i < n; i++ {
		c := i % 2
		y[i] = c
		sign := float64(2*c - 1)
		x.Set(i, 0, sign*sep+r.NormFloat64())
		x.Set(i, 1, sign*sep+r.NormFloat64())
		groups[i] = "a"
		if r.Float64() < 0.5 {
			groups[i] = "b"
			x.Set(i, 2, 1)
		}
	}
	d, _ := ml.NewDataset(x, y)
	d, _ = d.WithGroups(groups)
	return d
}

func TestFairnessRangeNoUncertaintyIsPoint(t *testing.T) {
	train := groupedBlobs(100, 2.5, 501)
	valid := groupedBlobs(60, 2.5, 502)
	fr, err := EstimateFairnessRange(NewSymbolic(train), valid, FairnessRangeConfig{Worlds: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Range.Width() > 1e-12 {
		t.Errorf("range %v should be a point without uncertainty", fr.Range)
	}
	if fr.Center != fr.Range.Lo {
		t.Errorf("center %v outside range %v", fr.Center, fr.Range)
	}
}

func TestFairnessRangeWidensWithUncertainty(t *testing.T) {
	train := groupedBlobs(100, 1.2, 503)
	valid := groupedBlobs(60, 1.2, 504)
	sym := NewSymbolic(train)
	// the group-indicator feature itself is uncertain for a third of rows:
	// the biased-collection setting the CRA paper targets
	for i := 0; i < train.Len(); i += 3 {
		sym.SetUncertain(i, 2, 0, 1)
	}
	fr, err := EstimateFairnessRange(sym, valid, FairnessRangeConfig{Worlds: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Range.Width() <= 0 {
		t.Errorf("range %v should widen under group uncertainty", fr.Range)
	}
	if !contains(fr.Range, fr.Center, 0) {
		t.Errorf("center %v outside range %v", fr.Center, fr.Range)
	}
	if fr.Worlds < 17 { // center + 2 corners + 15 samples
		t.Errorf("worlds = %d", fr.Worlds)
	}
}

func TestFairnessRangeErrors(t *testing.T) {
	train := groupedBlobs(20, 2, 505)
	noGroups, _ := ml.NewDataset(train.X, train.Y)
	if _, err := EstimateFairnessRange(NewSymbolic(train), noGroups, FairnessRangeConfig{}); err == nil {
		t.Error("expected error for ungrouped validation")
	}
	if _, err := EstimateFairnessRange(&SymbolicDataset{}, train, FairnessRangeConfig{}); err == nil {
		t.Error("expected error for empty training set")
	}
}
