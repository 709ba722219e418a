package cleaning

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"nde/internal/datagen"
	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/nderr"
	"nde/internal/obs"
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

func dirtySetup(t *testing.T, n int) (dirty, valid, test *ml.Dataset, truth []int, corrupted map[int]bool) {
	t.Helper()
	clean := blobs(n, 2.5, 101)
	valid = blobs(n/2, 2.5, 102)
	test = blobs(n/2, 2.5, 103)
	var err error
	dirty, corrupted, err = datagen.FlipDatasetLabels(clean, 0.15, 104)
	if err != nil {
		t.Fatal(err)
	}
	return dirty, valid, test, clean.Y, corrupted
}

func TestLabelOracle(t *testing.T) {
	dirty, _, _, truth, corrupted := dirtySetup(t, 40)
	oracle := &LabelOracle{Truth: truth}
	var rows []int
	for i := range corrupted {
		rows = append(rows, i)
	}
	labels := append([]int(nil), dirty.Y...)
	cleaned, err := oracle.Clean(dirty, rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range rows {
		if cleaned.Y[i] != truth[i] {
			t.Errorf("row %d not repaired", i)
		}
		if dirty.Y[i] == truth[i] {
			t.Errorf("fixture row %d was not corrupted", i)
		}
	}
	// a label repair copies the labels only: it shares the features and
	// leaves the input's labels as they were
	if cleaned.X != dirty.X {
		t.Error("the repaired dataset does not share its input's feature matrix")
	}
	if !slices.Equal(dirty.Y, labels) {
		t.Error("oracle mutated its input's labels")
	}
	if _, err := oracle.Clean(dirty, []int{-1}); err == nil {
		t.Error("expected error for out-of-range row")
	}
	short := &LabelOracle{Truth: []int{0}}
	if _, err := short.Clean(dirty, nil); err == nil {
		t.Error("expected error for truth length mismatch")
	}
	neg := &LabelOracle{Truth: append([]int(nil), truth...)}
	neg.Truth[5] = -1
	if out, err := neg.Clean(dirty, []int{4, 5}); !errors.Is(err, nderr.ErrDegenerateInput) || out != nil {
		t.Errorf("negative truth = %v, %v; want nil, ErrDegenerateInput", out, err)
	}
}

func TestStrategiesRankCorruptedFirst(t *testing.T) {
	dirty, valid, _, _, corrupted := dirtySetup(t, 100)
	k := len(corrupted)
	strategies := []Strategy{
		&KNNShapleyStrategy{K: 5},
		&NoiseStrategy{Seed: 1},
		&InfluenceStrategy{},
	}
	for _, s := range strategies {
		order, err := s.Rank(dirty, valid)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(order) != dirty.Len() {
			t.Fatalf("%s: rank length %d", s.Name(), len(order))
		}
		hits := 0
		for _, i := range order[:k] {
			if corrupted[i] {
				hits++
			}
		}
		prec := float64(hits) / float64(k)
		if prec < 0.6 {
			t.Errorf("%s: precision@%d = %v, want >= 0.6", s.Name(), k, prec)
		}
	}
}

func TestRandomStrategyIsPermutation(t *testing.T) {
	dirty, valid, _, _, _ := dirtySetup(t, 30)
	order, err := (&RandomStrategy{Seed: 7}).Rank(dirty, valid)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, i := range order {
		if seen[i] {
			t.Fatal("duplicate index in random ranking")
		}
		seen[i] = true
	}
	if len(seen) != 30 {
		t.Error("random ranking incomplete")
	}
}

func TestIterativeCleanRecoversAccuracy(t *testing.T) {
	dirty, valid, test, truth, corrupted := dirtySetup(t, 100)
	oracle := &LabelOracle{Truth: truth}
	newModel := func() ml.Classifier { return ml.NewKNN(5) }
	res, err := IterativeClean(dirty, valid, test, oracle, &KNNShapleyStrategy{K: 5}, newModel, 5, len(corrupted))
	if err != nil {
		t.Fatal(err)
	}
	first := res.Curve[0].Accuracy
	last := res.Curve[len(res.Curve)-1].Accuracy
	if last <= first {
		t.Errorf("cleaning did not improve accuracy: %v -> %v", first, last)
	}
	if res.Curve[len(res.Curve)-1].Cleaned != len(corrupted) {
		t.Errorf("budget not exhausted: cleaned %d of %d", res.Curve[len(res.Curve)-1].Cleaned, len(corrupted))
	}
	if res.Strategy != "knn-shapley" {
		t.Errorf("strategy name = %q", res.Strategy)
	}
	// final dataset should have most corrupted labels repaired
	repaired := 0
	for i := range corrupted {
		if res.Final.Y[i] == truth[i] {
			repaired++
		}
	}
	if repaired < len(corrupted)/2 {
		t.Errorf("only %d of %d corrupted rows repaired", repaired, len(corrupted))
	}
}

func TestIterativeCleanBudgetRespected(t *testing.T) {
	dirty, valid, test, truth, _ := dirtySetup(t, 60)
	oracle := &LabelOracle{Truth: truth}
	newModel := func() ml.Classifier { return ml.NewKNN(3) }
	res, err := IterativeClean(dirty, valid, test, oracle, &RandomStrategy{Seed: 3}, newModel, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	lastCleaned := res.Curve[len(res.Curve)-1].Cleaned
	if lastCleaned != 10 {
		t.Errorf("cleaned %d, budget 10", lastCleaned)
	}
	if _, err := IterativeClean(dirty, valid, test, oracle, &RandomStrategy{}, newModel, 0, 5); err == nil {
		t.Error("expected error for batch=0")
	}
	if _, err := IterativeClean(dirty, valid, test, oracle, &RandomStrategy{}, newModel, 1, -1); err == nil {
		t.Error("expected error for negative budget")
	}
	negative := &LabelOracle{Truth: make([]int, dirty.Len())}
	for i := range negative.Truth {
		negative.Truth[i] = -1
	}
	if _, err := IterativeClean(dirty, valid, test, negative, &RandomStrategy{}, newModel, 4, 10); !errors.Is(err, nderr.ErrDegenerateInput) {
		t.Errorf("negative truth labels: err = %v, want ErrDegenerateInput", err)
	}
}

func TestCompareStrategiesImportanceBeatsRandom(t *testing.T) {
	// harder setting than dirtySetup: closer blobs and heavy noise, so the
	// cleaning curves cannot saturate immediately; single runs are noisy,
	// so the dominance claim is checked on the mean AUC over seeds
	newModel := func() ml.Classifier { return ml.NewKNN(5) }
	var aucRandom, aucShapley float64
	for _, seed := range []int64{111, 222, 333} {
		clean := blobs(120, 1.8, seed)
		valid := blobs(60, 1.8, seed+1)
		test := blobs(60, 1.8, seed+2)
		dirty, corrupted, err := datagen.FlipDatasetLabels(clean, 0.25, seed+3)
		if err != nil {
			t.Fatal(err)
		}
		oracle := &LabelOracle{Truth: clean.Y}
		results, err := CompareStrategies(dirty, valid, test, oracle,
			[]Strategy{&RandomStrategy{Seed: seed}, &KNNShapleyStrategy{K: 5}},
			newModel, 6, len(corrupted))
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 2 {
			t.Fatalf("results = %d", len(results))
		}
		aucRandom += AreaUnderCurve(results[0].Curve)
		aucShapley += AreaUnderCurve(results[1].Curve)
	}
	if aucShapley <= aucRandom {
		t.Errorf("mean shapley AUC %v <= mean random AUC %v", aucShapley/3, aucRandom/3)
	}
}

func TestAreaUnderCurve(t *testing.T) {
	curve := []CurvePoint{{0, 0.5}, {10, 0.7}, {20, 0.9}}
	// trapezoids: 10*(0.6) + 10*(0.8) = 14; /20 = 0.7
	if got := AreaUnderCurve(curve); got != 0.7 {
		t.Errorf("AUC = %v", got)
	}
	if AreaUnderCurve(nil) != 0 {
		t.Error("empty AUC should be 0")
	}
	if AreaUnderCurve([]CurvePoint{{0, 0.4}}) != 0.4 {
		t.Error("single-point AUC should be its accuracy")
	}
}

func TestStrategyNamesAndLOO(t *testing.T) {
	names := map[Strategy]string{
		&RandomStrategy{}:     "random",
		&KNNShapleyStrategy{}: "knn-shapley",
		&LOOStrategy{}:        "loo",
		&NoiseStrategy{}:      "noise-score",
		&InfluenceStrategy{}:  "influence",
	}
	for s, want := range names {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
	// LOO ranking runs end to end on a small set
	dirty, valid, _, _, _ := dirtySetup(t, 24)
	order, err := (&LOOStrategy{}).Rank(dirty, valid)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 24 {
		t.Errorf("LOO rank length = %d", len(order))
	}
	seen := make(map[int]bool)
	for _, i := range order {
		if seen[i] {
			t.Fatal("duplicate in LOO ranking")
		}
		seen[i] = true
	}
}

// Regression: a curve whose cleaned-count span is zero (>= 2 points at the
// same budget position) used to divide 0/0 and return NaN; it must return
// the mean accuracy instead.
func TestAreaUnderCurveZeroSpan(t *testing.T) {
	curve := []CurvePoint{{0, 0.4}, {0, 0.6}}
	got := AreaUnderCurve(curve)
	if math.IsNaN(got) {
		t.Fatal("zero-span AUC is NaN")
	}
	if got != 0.5 {
		t.Errorf("zero-span AUC = %v, want mean accuracy 0.5", got)
	}
	three := []CurvePoint{{5, 0.3}, {5, 0.6}, {5, 0.9}}
	if got := AreaUnderCurve(three); got != 0.6 {
		t.Errorf("zero-span AUC = %v, want 0.6", got)
	}
}

// Parallel strategy comparison must be bit-for-bit identical to serial —
// curve order, every accuracy (compared as float bits), final datasets and
// AUC — for workers 1, 4 and GOMAXPROCS.
func TestCompareStrategiesParallelDeterminism(t *testing.T) {
	dirty, valid, test, truth, corrupted := dirtySetup(t, 80)
	oracle := &LabelOracle{Truth: truth}
	newModel := func() ml.Classifier { return ml.NewKNN(5) }
	strategies := []Strategy{
		&RandomStrategy{Seed: 7},
		&NoiseStrategy{Seed: 7},
		&KNNShapleyStrategy{K: 5},
	}
	budget := len(corrupted)
	serial, err := CompareStrategiesParallel(dirty, valid, test, oracle, strategies, newModel, budget/4, budget, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got, err := CompareStrategiesParallel(dirty, valid, test, oracle, strategies, newModel, budget/4, budget, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(serial))
		}
		for s := range got {
			if got[s].Strategy != serial[s].Strategy {
				t.Fatalf("workers=%d: result %d is %s, want %s (order changed)", workers, s, got[s].Strategy, serial[s].Strategy)
			}
			if len(got[s].Curve) != len(serial[s].Curve) {
				t.Fatalf("workers=%d %s: curve %d points, want %d", workers, got[s].Strategy, len(got[s].Curve), len(serial[s].Curve))
			}
			for p := range got[s].Curve {
				if got[s].Curve[p].Cleaned != serial[s].Curve[p].Cleaned ||
					math.Float64bits(got[s].Curve[p].Accuracy) != math.Float64bits(serial[s].Curve[p].Accuracy) {
					t.Errorf("workers=%d %s point %d: got %+v, want %+v",
						workers, got[s].Strategy, p, got[s].Curve[p], serial[s].Curve[p])
				}
			}
			if math.Float64bits(AreaUnderCurve(got[s].Curve)) != math.Float64bits(AreaUnderCurve(serial[s].Curve)) {
				t.Errorf("workers=%d %s: AUC diverges", workers, got[s].Strategy)
			}
			for i := range got[s].Final.Y {
				if got[s].Final.Y[i] != serial[s].Final.Y[i] {
					t.Errorf("workers=%d %s: final label %d diverges", workers, got[s].Strategy, i)
					break
				}
			}
		}
	}
}

// The inflight gauge returns to zero and per-strategy spans nest under the
// compare span.
func TestCompareStrategiesObsWiring(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	defer obs.Reset()
	obs.Reset()
	dirty, valid, test, truth, _ := dirtySetup(t, 40)
	oracle := &LabelOracle{Truth: truth}
	newModel := func() ml.Classifier { return ml.NewKNN(5) }
	strategies := []Strategy{&RandomStrategy{Seed: 1}, &NoiseStrategy{Seed: 1}}
	if _, err := CompareStrategiesParallel(dirty, valid, test, oracle, strategies, newModel, 4, 8, 2); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Gauge("cleaning_strategies_inflight").Value(); got != 0 {
		t.Errorf("inflight gauge = %v after completion, want 0", got)
	}
	var compare *obs.Span
	for _, root := range obs.DefaultTracer().Roots() {
		if root.Name() == "cleaning.compare" {
			compare = root
		}
	}
	if compare == nil {
		t.Fatal("no cleaning.compare span")
	}
	runs := 0
	for _, c := range compare.Children() {
		if c.Name() == "cleaning.run" {
			runs++
			rounds := 0
			for _, r := range c.Children() {
				if r.Name() == "cleaning.round" {
					rounds++
				}
			}
			if rounds == 0 {
				t.Error("cleaning.run span has no cleaning.round children")
			}
		}
	}
	if runs != 2 {
		t.Errorf("compare span has %d cleaning.run children, want 2", runs)
	}
}
