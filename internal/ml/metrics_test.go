package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 0, 1, 1}, []int{1, 1, 1, 0}); got != 0.5 {
		t.Errorf("Accuracy = %v", got)
	}
	if Accuracy(nil, nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
}

func TestConfusionAndDerived(t *testing.T) {
	truth := []int{1, 1, 0, 0, 1}
	pred := []int{1, 0, 1, 0, 1}
	c := Confusion(truth, pred, 1)
	if c.TP != 2 || c.FN != 1 || c.FP != 1 || c.TN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if math.Abs(c.Precision()-2.0/3) > 1e-12 {
		t.Errorf("Precision = %v", c.Precision())
	}
	if math.Abs(c.Recall()-2.0/3) > 1e-12 {
		t.Errorf("Recall = %v", c.Recall())
	}
	if math.Abs(c.FPR()-0.5) > 1e-12 {
		t.Errorf("FPR = %v", c.FPR())
	}
	if math.Abs(F1(truth, pred, 1)-2.0/3) > 1e-12 {
		t.Errorf("F1 = %v", F1(truth, pred, 1))
	}
}

func TestPrecisionRecallUndefined(t *testing.T) {
	c := ConfusionCounts{}
	if c.Precision() != 0 || c.Recall() != 0 || c.FPR() != 0 {
		t.Error("undefined rates should be 0")
	}
	if F1([]int{0}, []int{0}, 1) != 0 {
		t.Error("F1 with no positives should be 0")
	}
}

func TestEqualizedOddsDifference(t *testing.T) {
	// group a: TPR 1, FPR 0. group b: TPR 0, FPR 1. violation = 1
	truth := []int{1, 0, 1, 0}
	pred := []int{1, 0, 0, 1}
	groups := []string{"a", "a", "b", "b"}
	if got := EqualizedOddsDifference(truth, pred, groups, 1); got != 1 {
		t.Errorf("EO diff = %v", got)
	}
	fair := []int{1, 0, 1, 0}
	if got := EqualizedOddsDifference(truth, fair, groups, 1); got != 0 {
		t.Errorf("fair EO diff = %v", got)
	}
	// single group: no gap by definition
	if got := EqualizedOddsDifference(truth, pred, []string{"x", "x", "x", "x"}, 1); got != 0 {
		t.Errorf("single-group EO = %v", got)
	}
}

func TestPredictiveParityDifference(t *testing.T) {
	// group a precision 1 (1 TP / 1 pos pred), group b precision 0
	truth := []int{1, 0, 0, 0}
	pred := []int{1, 0, 1, 0}
	groups := []string{"a", "a", "b", "b"}
	if got := PredictiveParityDifference(truth, pred, groups, 1); got != 1 {
		t.Errorf("PP diff = %v", got)
	}
}

func TestPredictionEntropy(t *testing.T) {
	if PredictionEntropy([]int{1, 1, 1}) != 0 {
		t.Error("constant predictions should have zero entropy")
	}
	got := PredictionEntropy([]int{0, 1, 0, 1})
	if math.Abs(got-math.Log(2)) > 1e-12 {
		t.Errorf("uniform binary entropy = %v, want ln2", got)
	}
	if PredictionEntropy(nil) != 0 {
		t.Error("empty entropy should be 0")
	}
}

func TestReportIncludesFairnessOnlyWithGroups(t *testing.T) {
	d := blobs(20, 2, 1)
	pred := append([]int(nil), d.Y...)
	r := Report(d, pred, 1)
	if r.Accuracy != 1 || r.F1 != 1 || r.EqualizedOdds != 0 {
		t.Errorf("report = %+v", r)
	}
	groups := make([]string, d.Len())
	for i := range groups {
		groups[i] = []string{"a", "b"}[i%2]
	}
	dg, _ := d.WithGroups(groups)
	r2 := Report(dg, pred, 1)
	if r2.Accuracy != 1 {
		t.Errorf("report = %+v", r2)
	}
}

func TestKFoldPartition(t *testing.T) {
	trains, valids, err := KFold(10, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trains) != 3 {
		t.Fatalf("folds = %d", len(trains))
	}
	seen := make(map[int]int)
	for f := range valids {
		if len(trains[f])+len(valids[f]) != 10 {
			t.Error("fold sizes wrong")
		}
		for _, i := range valids[f] {
			seen[i]++
		}
	}
	for i := 0; i < 10; i++ {
		if seen[i] != 1 {
			t.Errorf("row %d appears %d times in validation folds", i, seen[i])
		}
	}
	if _, _, err := KFold(3, 5, 1); err == nil {
		t.Error("expected error for k > n")
	}
}

// Property: accuracy is invariant under consistent permutation of truth and
// predictions, and bounded in [0,1].
func TestQuickAccuracyPermutationInvariant(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(size%30) + 1
		truth := make([]int, n)
		pred := make([]int, n)
		for i := range truth {
			truth[i] = r.Intn(3)
			pred[i] = r.Intn(3)
		}
		a := Accuracy(truth, pred)
		perm := r.Perm(n)
		pt := make([]int, n)
		pp := make([]int, n)
		for i, p := range perm {
			pt[i], pp[i] = truth[p], pred[p]
		}
		return a >= 0 && a <= 1 && math.Abs(a-Accuracy(pt, pp)) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: fairness differences are bounded in [0,1] and zero when all
// examples share a group.
func TestQuickFairnessBounds(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(size%30) + 2
		truth := make([]int, n)
		pred := make([]int, n)
		groups := make([]string, n)
		for i := range truth {
			truth[i] = r.Intn(2)
			pred[i] = r.Intn(2)
			groups[i] = []string{"a", "b", "c"}[r.Intn(3)]
		}
		eo := EqualizedOddsDifference(truth, pred, groups, 1)
		pp := PredictiveParityDifference(truth, pred, groups, 1)
		if eo < 0 || eo > 1 || pp < 0 || pp > 1 {
			return false
		}
		same := make([]string, n)
		for i := range same {
			same[i] = "only"
		}
		return EqualizedOddsDifference(truth, pred, same, 1) == 0 &&
			PredictiveParityDifference(truth, pred, same, 1) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
