package importance

import "testing"

func TestAmortizedEstimatorRecoversSignal(t *testing.T) {
	// flipped points have low exact scores; the amortized model trained on
	// half the exact scores should detect most flips on the other half
	clean := blobs(160, 2.5, 401)
	valid := blobs(80, 2.5, 402)
	dirty, flipped := flipLabels(clean, 0.15, 403)
	exact, err := KNNShapley(5, dirty, valid)
	if err != nil {
		t.Fatal(err)
	}
	rows := deterministicSample(dirty.Len(), 80, 5)
	targets := make([]float64, len(rows))
	for o, i := range rows {
		targets[o] = exact[i]
	}
	est := NewAmortizedEstimator()
	if err := est.Fit(dirty, rows, targets); err != nil {
		t.Fatal(err)
	}
	scores, err := est.Predict()
	if err != nil {
		t.Fatal(err)
	}
	k := len(flipped)
	prec := scores.PrecisionAtK(flipped, k)
	if prec < 0.5 {
		t.Errorf("amortized precision@%d = %v, want >= 0.5", k, prec)
	}
}

func TestAmortizedEstimatorErrors(t *testing.T) {
	d := blobs(20, 2, 404)
	est := NewAmortizedEstimator()
	if err := est.Fit(d, []int{0, 1}, []float64{1}); err == nil {
		t.Error("expected length mismatch error")
	}
	if err := est.Fit(d, []int{0}, []float64{1}); err == nil {
		t.Error("expected too-few-rows error")
	}
	if _, err := NewAmortizedEstimator().Predict(); err == nil {
		t.Error("expected error predicting before fit")
	}
}

func TestDeterministicSample(t *testing.T) {
	a := deterministicSample(100, 20, 1)
	b := deterministicSample(100, 20, 1)
	c := deterministicSample(100, 20, 2)
	if len(a) != 20 {
		t.Fatalf("len = %d", len(a))
	}
	seen := make(map[int]bool)
	for i, v := range a {
		if v != b[i] {
			t.Fatal("not deterministic")
		}
		if seen[v] {
			t.Fatal("duplicate index")
		}
		seen[v] = true
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical samples")
	}
}

// deterministicSample returns `budget` distinct indices from [0,n) chosen
// by a seeded linear-congruential walk (avoids importing math/rand here).
func deterministicSample(n, budget int, seed int64) []int {
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 11
	}
	seen := make(map[int]bool, budget)
	out := make([]int, 0, budget)
	for len(out) < budget {
		i := int(next() % uint64(n))
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}
