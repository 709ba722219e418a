package importance

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nde/internal/linalg"
	"nde/internal/ml"
)

func randomDataset(r *rand.Rand, n, dim, classes int) *ml.Dataset {
	x := linalg.NewMatrix(n, dim)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			x.Set(i, j, r.NormFloat64())
		}
		y[i] = r.Intn(classes)
	}
	d, _ := ml.NewDataset(x, y)
	return d
}

// The decisive correctness check: the closed-form kNN-Shapley must equal the
// exact Shapley value of the kNN utility, computed by full enumeration.
func TestKNNShapleyMatchesExactEnumeration(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		r := rand.New(rand.NewSource(int64(100 + k)))
		train := randomDataset(r, 8, 2, 2)
		valid := randomDataset(r, 4, 2, 2)
		closed, err := KNNShapley(k, train, valid)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExactShapley(train.Len(), KNNUtility(k, train, valid))
		if err != nil {
			t.Fatal(err)
		}
		for i := range exact {
			if math.Abs(closed[i]-exact[i]) > 1e-9 {
				t.Errorf("k=%d: closed[%d]=%v exact=%v", k, i, closed[i], exact[i])
			}
		}
	}
}

// The closed form and the enumerated utility rank by the same distances,
// so they agree where rounding decides the order: two training rows at
// 0.37 from the validation point in exact arithmetic, which the Gram
// kernel reads as 0.36999999999999994 (row 0, label 0) and
// 0.3699999999999999 (row 1, label 1). Ranked by direct differences the
// two tie and row 0 would come first.
func TestKNNShapleyMatchesExactOnNearTie(t *testing.T) {
	train, _ := ml.NewDataset(linalg.FromRows([][]float64{{0.1, 0.2}, {0.1, 0}}), []int{0, 1})
	valid, _ := ml.NewDataset(linalg.FromRows([][]float64{{0.7, 0.1}}), []int{1})
	closed, err := KNNShapley(1, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactShapley(train.Len(), KNNUtility(1, train, valid))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0, 1} {
		if math.Abs(closed[i]-exact[i]) > 1e-12 || math.Abs(closed[i]-want) > 1e-12 {
			t.Errorf("row %d: closed form %v, enumeration %v, want %v", i, closed[i], exact[i], want)
		}
	}
}

// Property: the same equivalence holds for random shapes, k values and
// class counts.
func TestQuickKNNShapleyEqualsExact(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(6)
		k := 1 + r.Intn(3)
		train := randomDataset(r, n, 1+r.Intn(2), 2+r.Intn(2))
		valid := randomDataset(r, 1+r.Intn(3), train.Dim(), train.NumClasses())
		closed, err := KNNShapley(k, train, valid)
		if err != nil {
			return false
		}
		exact, err := ExactShapley(n, KNNUtility(k, train, valid))
		if err != nil {
			return false
		}
		for i := range exact {
			if math.Abs(closed[i]-exact[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: kNN-Shapley efficiency — scores sum to U(D) − U(∅) = U(D).
func TestQuickKNNShapleyEfficiency(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(20)
		k := 1 + r.Intn(4)
		train := randomDataset(r, n, 2, 2)
		valid := randomDataset(r, 1+r.Intn(5), 2, 2)
		scores, err := KNNShapley(k, train, valid)
		if err != nil {
			return false
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		uFull, err := KNNUtility(k, train, valid)(all)
		if err != nil {
			return false
		}
		return math.Abs(scores.Sum()-uFull) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKNNShapleyErrors(t *testing.T) {
	d := blobs(10, 1, 1)
	if _, err := KNNShapley(0, d, d); err == nil {
		t.Error("expected error for k=0")
	}
	empty := &ml.Dataset{X: linalg.NewMatrix(0, 2), Y: nil}
	if _, err := KNNShapley(1, empty, d); err == nil {
		t.Error("expected error for empty train")
	}
	if _, err := KNNShapley(1, d, empty); err == nil {
		t.Error("expected error for empty valid")
	}
	other := blobs(10, 1, 1)
	mismatch := &ml.Dataset{X: linalg.NewMatrix(10, 3), Y: other.Y}
	if _, err := KNNShapley(1, d, mismatch); err == nil {
		t.Error("expected error for dim mismatch")
	}
}

func TestKNNShapleyDetectsLabelErrors(t *testing.T) {
	clean := blobs(120, 2.5, 7)
	valid := blobs(60, 2.5, 8)
	dirty, flipped := flipLabels(clean, 0.1, 9)
	scores, err := KNNShapley(5, dirty, valid)
	if err != nil {
		t.Fatal(err)
	}
	k := len(flipped)
	prec := scores.PrecisionAtK(flipped, k)
	if prec < 0.7 {
		t.Errorf("precision@%d = %v, want >= 0.7", k, prec)
	}
	// flipped points should score much lower on average than clean points
	var mFlip, mClean float64
	for i, s := range scores {
		if flipped[i] {
			mFlip += s / float64(len(flipped))
		} else {
			mClean += s / float64(len(scores)-len(flipped))
		}
	}
	if mFlip >= mClean {
		t.Errorf("mean score flipped %v >= clean %v", mFlip, mClean)
	}
}
