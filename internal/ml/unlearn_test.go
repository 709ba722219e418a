package ml

import (
	"math"
	"testing"

	"nde/internal/linalg"
)

func TestUnlearnableLogRegApproximatesRetrain(t *testing.T) {
	d := blobs(150, 2, 311)
	m := NewUnlearnableLogReg()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	remove := []int{3, 50, 77}
	if err := m.Unlearn(remove); err != nil {
		t.Fatal(err)
	}
	// exact retrain on the reduced data
	rm := map[int]bool{3: true, 50: true, 77: true}
	rest, _ := d.Without(rm)
	fresh := NewUnlearnableLogReg()
	if err := fresh.Fit(rest); err != nil {
		t.Fatal(err)
	}
	// the unlearning contract: either the residual gradient of the reduced
	// objective at the updated parameters is below tolerance, or the model
	// fell back to retraining
	if m.Retrains() == 0 {
		if g := linalg.Norm2(m.gradAt()); g > m.Tolerance {
			t.Errorf("residual gradient %v exceeds tolerance %v", g, m.Tolerance)
		}
	}
	if dist := ParameterDistance(m, fresh); dist > 2 {
		t.Errorf("unlearned parameters implausibly far (%v) from retrained", dist)
	}
	// predictions should agree on held-out data
	test := blobs(60, 2, 312)
	agree := 0
	for i := 0; i < test.Len(); i++ {
		if m.Predict(test.Row(i)) == fresh.Predict(test.Row(i)) {
			agree++
		}
	}
	if float64(agree)/float64(test.Len()) < 0.95 {
		t.Errorf("only %d/%d predictions agree after unlearning", agree, test.Len())
	}
}

func TestUnlearnableLogRegGuardrailRetrains(t *testing.T) {
	d := blobs(60, 2, 321)
	m := NewUnlearnableLogReg()
	m.Tolerance = 1e-12 // impossibly strict: every unlearn falls back
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := m.Unlearn([]int{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	if m.Retrains() != 1 {
		t.Errorf("retrains = %d, want 1", m.Retrains())
	}
	if m.nAlive != 52 {
		t.Errorf("alive = %d", m.nAlive)
	}
}

func TestUnlearnableLogRegNoOpOnDeadRows(t *testing.T) {
	d := blobs(40, 2, 331)
	m := NewUnlearnableLogReg()
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := m.Unlearn([]int{5}); err != nil {
		t.Fatal(err)
	}
	theta := m.Theta()
	// unlearning the same row again must not move the parameters
	if err := m.Unlearn([]int{5}); err != nil {
		t.Fatal(err)
	}
	theta2 := m.Theta()
	for i := range theta {
		if theta[i] != theta2[i] {
			t.Fatal("re-unlearning a dead row moved parameters")
		}
	}
}

func TestRandomForestAccuracyAndCertifiedRadius(t *testing.T) {
	train := blobs(200, 2.5, 341)
	test := blobs(80, 2.5, 342)
	m := NewRandomForest(15, 7)
	acc := fitAccuracy(t, m, train, test)
	if acc < 0.9 {
		t.Errorf("forest accuracy = %v", acc)
	}
	// deep in a cluster the certified radius should be large
	deep := m.CertifiedRadius([]float64{3, 3})
	if deep < 5 {
		t.Errorf("certified radius deep in cluster = %d", deep)
	}
	p := m.Proba([]float64{3, 3})
	if p[1] < 0.8 {
		t.Errorf("proba deep in class 1 = %v", p)
	}
	if err := m.Fit(&Dataset{X: train.X.Clone(), Y: nil}); err == nil {
		t.Error("expected error on empty fit")
	}
}

func TestRandomForestDeterministicBySeed(t *testing.T) {
	train := blobs(100, 1.5, 351)
	test := blobs(50, 1.5, 352)
	a := NewRandomForest(9, 3)
	b := NewRandomForest(9, 3)
	if err := a.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(train); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < test.Len(); i++ {
		if a.Predict(test.Row(i)) != b.Predict(test.Row(i)) {
			t.Fatal("same-seed forests disagree")
		}
	}
}

// Theta returns the current parameter vector (weights ++ intercept).
func (m *UnlearnableLogReg) Theta() []float64 { return linalg.Clone(m.theta) }

// ParameterDistance returns ‖θ_a − θ_b‖₂ between two unlearnable models —
// used to measure how close unlearning lands to exact retraining.
func ParameterDistance(a, b *UnlearnableLogReg) float64 {
	if len(a.theta) != len(b.theta) {
		return math.Inf(1)
	}
	diff := linalg.Clone(a.theta)
	linalg.AXPY(-1, b.theta, diff)
	return linalg.Norm2(diff)
}
