package ml

import (
	"math"
	"math/rand"
	"testing"

	"nde/internal/linalg"
)

// blobs builds a two-cluster binary dataset: class 0 around (-sep, -sep),
// class 1 around (+sep, +sep).
func blobs(n int, sep float64, seed int64) *Dataset {
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
	d, _ := NewDataset(x, y)
	return d
}

func fitAccuracy(t *testing.T, m Classifier, train, test *Dataset) float64 {
	t.Helper()
	acc, err := EvaluateAccuracy(m, train, test)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestDatasetBasics(t *testing.T) {
	d := blobs(10, 2, 1)
	if d.Len() != 10 || d.Dim() != 2 || d.NumClasses() != 2 {
		t.Fatalf("dataset header wrong: %d %d %d", d.Len(), d.Dim(), d.NumClasses())
	}
	sub := d.Subset([]int{0, 3, 5})
	if sub.Len() != 3 || sub.Y[1] != d.Y[3] {
		t.Error("Subset wrong")
	}
	rest, kept := d.Without(map[int]bool{0: true, 9: true})
	if rest.Len() != 8 || kept[0] != 1 {
		t.Error("Without wrong")
	}
	if _, err := NewDataset(linalg.NewMatrix(2, 1), []int{0}); err == nil {
		t.Error("expected shape error")
	}
	if _, err := d.WithGroups([]string{"a"}); err == nil {
		t.Error("expected groups length error")
	}
	g, err := d.WithGroups(make([]string, 10))
	if err != nil || len(g.Groups) != 10 {
		t.Error("WithGroups failed")
	}
	c := d.Clone()
	c.Y[0] = 99
	if d.Y[0] == 99 {
		t.Error("Clone shares labels")
	}
}

func TestModelsSeparateBlobs(t *testing.T) {
	train := blobs(200, 2.5, 42)
	test := blobs(80, 2.5, 43)
	models := map[string]Classifier{
		"knn":    NewKNN(5),
		"logreg": NewLogisticRegression(),
		"linreg": &LinearRegression{L2: 1e-6},
		"tree":   &DecisionTree{MaxDepth: 5, MinSamplesSplit: 2},
	}
	for name, m := range models {
		if acc := fitAccuracy(t, m, train, test); acc < 0.9 {
			t.Errorf("%s accuracy = %v, want >= 0.9", name, acc)
		}
	}
}

func TestModelsRejectEmptyFit(t *testing.T) {
	empty := &Dataset{X: linalg.NewMatrix(0, 2), Y: nil}
	for name, m := range map[string]Classifier{
		"knn": NewKNN(3), "logreg": NewLogisticRegression(),
		"tree": &DecisionTree{MaxDepth: 5, MinSamplesSplit: 2},
	} {
		if err := m.Fit(empty); err == nil {
			t.Errorf("%s: expected error fitting empty dataset", name)
		}
	}
}

func TestKNNDeterministicTies(t *testing.T) {
	// two equidistant neighbors with different labels; k=2 vote ties -> label 0
	x := linalg.FromRows([][]float64{{-1, 0}, {1, 0}})
	d, _ := NewDataset(x, []int{1, 0})
	m := NewKNN(2)
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{0, 0}); got != 0 {
		t.Errorf("tie should break toward smaller label, got %d", got)
	}
	order := m.Neighbors([]float64{0, 0})
	if order[0] != 0 || order[1] != 1 {
		t.Errorf("distance ties should break by index, got %v", order)
	}
}

func TestKNNProba(t *testing.T) {
	train := blobs(50, 3, 7)
	m := NewKNN(5)
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	p := m.Proba(train.Row(0))
	if len(p) != 2 || math.Abs(p[0]+p[1]-1) > 1e-12 {
		t.Errorf("Proba = %v", p)
	}
}

func TestKNNInvalidK(t *testing.T) {
	m := NewKNN(0)
	if err := m.Fit(blobs(5, 1, 1)); err == nil {
		t.Error("expected error for k=0")
	}
}

func TestLogisticRegressionProbaAndLabels(t *testing.T) {
	train := blobs(100, 3, 11)
	m := NewLogisticRegression()
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	p := m.Proba([]float64{3, 3})
	if p[1] < 0.9 {
		t.Errorf("P(y=1 | deep in class-1 region) = %v", p[1])
	}
	if len(m.Weights()) != 2 {
		t.Error("weights dim wrong")
	}
	bad := &Dataset{X: linalg.NewMatrix(1, 1), Y: []int{2}}
	if err := m.Fit(bad); err == nil {
		t.Error("expected error for non-binary labels")
	}
}

func TestLinearRegressionFitXY(t *testing.T) {
	// y = 2x + 1 exactly
	x := linalg.FromRows([][]float64{{0}, {1}, {2}, {3}})
	m := &LinearRegression{L2: 1e-6}
	if err := m.FitXY(x, []float64{1, 3, 5, 7}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.weights[0]-2) > 1e-6 || math.Abs(m.intercept-1) > 1e-6 {
		t.Errorf("w=%v b=%v", m.weights, m.intercept)
	}
	if math.Abs(m.PredictValue([]float64{10})-21) > 1e-5 {
		t.Errorf("PredictValue(10) = %v", m.PredictValue([]float64{10}))
	}
	if err := m.FitXY(x, []float64{1}); err == nil {
		t.Error("expected length mismatch error")
	}
}

func TestDecisionTreeXOR(t *testing.T) {
	// XOR is not linearly separable; a depth-2 tree nails it
	x := linalg.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0.1, 0.1}, {0.9, 0.9}, {0.1, 0.9}, {0.9, 0.1}})
	d, _ := NewDataset(x, []int{0, 1, 1, 0, 0, 0, 1, 1})
	m := &DecisionTree{MaxDepth: 5, MinSamplesSplit: 2}
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Len(); i++ {
		if m.Predict(d.Row(i)) != d.Y[i] {
			t.Errorf("tree wrong on row %d", i)
		}
	}
	if m.Depth() < 1 {
		t.Error("tree should have split")
	}
}

func TestDecisionTreeDepthLimit(t *testing.T) {
	d := blobs(100, 0.1, 9) // noisy: deep trees would overfit
	m := &DecisionTree{MaxDepth: 1, MinSamplesSplit: 2}
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if m.Depth() > 1 {
		t.Errorf("Depth = %d, want <= 1", m.Depth())
	}
}

func TestEvaluateAccuracyEmptyTrain(t *testing.T) {
	test := blobs(10, 1, 2)
	empty := &Dataset{X: linalg.NewMatrix(0, 2), Y: nil}
	acc, err := EvaluateAccuracy(NewKNN(3), empty, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0.5 {
		t.Errorf("empty-train accuracy = %v, want 0.5 (predicts class 0)", acc)
	}
}

// Depth returns the height of the fitted tree (0 for a single leaf).
func (m *DecisionTree) Depth() int {
	var h func(n *treeNode) int
	h = func(n *treeNode) int {
		if n == nil || n.leaf {
			return 0
		}
		l, r := h(n.left), h(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return h(m.root)
}
