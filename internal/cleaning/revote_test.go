package cleaning

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"nde/internal/linalg"
	"nde/internal/ml"
	"nde/internal/nderr"
)

// refIterativeClean is the cleaning loop before the test neighbors were
// hoisted out of it: every round refits a fresh model with
// ml.EvaluateAccuracy. It is the oracle the re-vote path must match bit
// for bit.
func refIterativeClean(
	train, valid, test *ml.Dataset,
	oracle Oracle,
	strat Strategy,
	newModel func() ml.Classifier,
	batch, budget int,
) (*Result, error) {
	cur := train.Clone()
	acc, err := ml.EvaluateAccuracy(newModel(), cur, test)
	if err != nil {
		return nil, err
	}
	res := &Result{Strategy: strat.Name(), Curve: []CurvePoint{{Cleaned: 0, Accuracy: acc}}}
	cleaned := make(map[int]bool)
	for len(cleaned) < budget && len(cleaned) < train.Len() {
		order, err := strat.Rank(cur, valid)
		if err != nil {
			return nil, err
		}
		var next []int
		for _, i := range order {
			if len(next) == batch || len(cleaned)+len(next) == budget {
				break
			}
			if !cleaned[i] {
				next = append(next, i)
			}
		}
		if len(next) == 0 {
			break
		}
		if cur, err = oracle.Clean(cur, next); err != nil {
			return nil, err
		}
		for _, i := range next {
			cleaned[i] = true
		}
		if acc, err = ml.EvaluateAccuracy(newModel(), cur, test); err != nil {
			return nil, err
		}
		res.Curve = append(res.Curve, CurvePoint{Cleaned: len(cleaned), Accuracy: acc})
	}
	res.Final = cur
	return res, nil
}

// sameResult fails t unless got equals want: every curve point (accuracy
// as float bits) and the final features (as bits) and labels.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Strategy != want.Strategy || len(got.Curve) != len(want.Curve) {
		t.Fatalf("%s: %s with %d points, want %s with %d", what, got.Strategy, len(got.Curve), want.Strategy, len(want.Curve))
	}
	for p := range got.Curve {
		g, w := got.Curve[p], want.Curve[p]
		if g.Cleaned != w.Cleaned || math.Float64bits(g.Accuracy) != math.Float64bits(w.Accuracy) {
			t.Fatalf("%s %s point %d: got %+v, want %+v", what, got.Strategy, p, g, w)
		}
	}
	if !sameBits(got.Final.X, want.Final.X) {
		t.Fatalf("%s %s: final features differ", what, got.Strategy)
	}
	for i := range want.Final.Y {
		if got.Final.Y[i] != want.Final.Y[i] {
			t.Fatalf("%s %s: final label %d = %d, want %d", what, got.Strategy, i, got.Final.Y[i], want.Final.Y[i])
		}
	}
}

// tieSplit draws a split whose three features come from a six-value grid,
// so test rows have many training rows at exactly tied distances; truth
// is a feature-dependent binary label (the noise-score strategy fits a
// logistic model) and the dirty labels flip a quarter of it.
func tieSplit(t *testing.T, n int, seed int64) (dirty, valid, test *ml.Dataset, truth []int) {
	t.Helper()
	grid := []float64{0, 0.1, 0.2, 0.3, 0.7, 1.1}
	r := rand.New(rand.NewSource(seed))
	draw := func(rows int) *ml.Dataset {
		x := linalg.NewMatrix(rows, 3)
		y := make([]int, rows)
		for i := range y {
			s := 0
			for c := 0; c < 3; c++ {
				g := r.Intn(len(grid))
				x.Set(i, c, grid[g])
				s += g
			}
			y[i] = s % 2
		}
		d, err := ml.NewDataset(x, y)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	clean := draw(n)
	dirty = clean.Clone()
	for _, i := range r.Perm(n)[:n/4] {
		dirty.Y[i] = 1 - dirty.Y[i]
	}
	return dirty, draw(n / 2), draw(n / 2), clean.Y
}

// nearTieSplit puts the training rows on two points at 0.37 from the
// query (0.7, 0.1) in exact arithmetic, which the distance kernel reads
// as 0.36999999999999994 and 0.3699999999999999: even rows at (0.1, 0.2)
// with truth 0, odd rows at (0.1, 0) with truth 1, a quarter of the
// dirty labels flipped. Valid and test rows are that query and three
// other points, labelled by the second feature.
func nearTieSplit(t *testing.T, n int, seed int64) (dirty, valid, test *ml.Dataset, truth []int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	dataset := func(x *linalg.Matrix, y []int) *ml.Dataset {
		d, err := ml.NewDataset(x, y)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	x := linalg.NewMatrix(n, 2)
	truth = make([]int, n)
	for i := range truth {
		x.Set(i, 0, 0.1)
		if i%2 == 0 {
			x.Set(i, 1, 0.2)
		} else {
			truth[i] = 1
		}
	}
	dirty = dataset(x, append([]int(nil), truth...))
	for _, i := range r.Perm(n)[:n/4] {
		dirty.Y[i] = 1 - dirty.Y[i]
	}
	points := [][]float64{{0.7, 0.1}, {0.1, 0.1}, {0.4, 0.1}, {0.1, 0.2}}
	draw := func(rows int) *ml.Dataset {
		x := linalg.NewMatrix(rows, 2)
		y := make([]int, rows)
		for i := range y {
			p := points[r.Intn(len(points))]
			copy(x.Row(i), p)
			if p[1] < 0.15 {
				y[i] = 1
			}
		}
		return dataset(x, y)
	}
	return dirty, draw(n / 2), draw(n / 2), truth
}

// featureOracle repairs labels like LabelOracle and also overwrites the
// first feature of every cleaned row divisible by 3, so the rounds after
// such a row must refit.
type featureOracle struct{ LabelOracle }

func (o *featureOracle) Clean(d *ml.Dataset, rows []int) (*ml.Dataset, error) {
	out, err := o.LabelOracle.Clean(d, rows)
	if err != nil {
		return nil, err
	}
	out.X = out.X.Clone() // the label repair shares d's features
	for _, r := range rows {
		if r%3 == 0 {
			out.X.Set(r, 0, float64(o.Truth[r]))
		}
	}
	return out, nil
}

// IterativeClean, CompareStrategiesParallel and CompareStrategiesWithIndex
// with the shared test neighbors give the same curves and final data as
// refitting every round, bit for bit, across strategies, budgets, worker
// counts, continuous, tie-heavy and near-tied features, k above the
// training size, a non-kNN model, and an oracle that repairs features.
func TestRevoteMatchesRefit(t *testing.T) {
	contDirty, contValid, contTest, contTruth, _ := dirtySetup(t, 60)
	tieDirty, tieValid, tieTest, tieTruth := tieSplit(t, 60, 7)
	nearDirty, nearValid, nearTest, nearTruth := nearTieSplit(t, 60, 8)
	type split struct {
		name               string
		dirty, valid, test *ml.Dataset
		truth              []int
	}
	splits := []split{
		{"continuous", contDirty, contValid, contTest, contTruth},
		{"ties", tieDirty, tieValid, tieTest, tieTruth},
		{"near-tie", nearDirty, nearValid, nearTest, nearTruth},
	}
	// Rankings do not depend on the model, so the costly noise-score
	// strategy (out-of-fold logistic fits every round) runs with one
	// model only.
	all := []Strategy{&RandomStrategy{Seed: 3}, &KNNShapleyStrategy{K: 5}, &NoiseStrategy{Seed: 3}}
	models := []struct {
		name       string
		newModel   func() ml.Classifier
		strategies []Strategy
	}{
		{"knn5", func() ml.Classifier { return ml.NewKNN(5) }, all},
		{"knn>n", func() ml.Classifier { return ml.NewKNN(61) }, all[:2]},
		{"tree", func() ml.Classifier { return &ml.DecisionTree{MaxDepth: 5, MinSamplesSplit: 2} }, all[:2]},
	}
	const batch = 7
	indexes := map[string]*ml.NeighborIndex{}
	for _, sp := range splits {
		ix, err := ml.NewNeighborIndex(sp.dirty, sp.test, 2)
		if err != nil {
			t.Fatal(err)
		}
		indexes[sp.name] = ix
	}
	for _, sp := range splits {
		for _, m := range models {
			strategies := m.strategies
			for _, feat := range []bool{false, true} {
				var oracle Oracle = &LabelOracle{Truth: sp.truth}
				if feat {
					oracle = &featureOracle{LabelOracle{Truth: sp.truth}}
				}
				for _, budget := range []int{batch - 3, 3*batch + 2, sp.dirty.Len() + 5} {
					name := fmt.Sprintf("%s/%s/features=%v/budget=%d", sp.name, m.name, feat, budget)
					want := make([]*Result, len(strategies))
					for i, st := range strategies {
						r, err := refIterativeClean(sp.dirty, sp.valid, sp.test, oracle, st, m.newModel, batch, budget)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want[i] = r
						got, err := IterativeClean(sp.dirty, sp.valid, sp.test, oracle, st, m.newModel, batch, budget)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						sameResult(t, name+"/IterativeClean", got, r)
					}
					for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
						got, err := CompareStrategiesParallel(sp.dirty, sp.valid, sp.test, oracle, strategies, m.newModel, batch, budget, workers)
						if err != nil {
							t.Fatalf("%s workers=%d: %v", name, workers, err)
						}
						for i := range got {
							sameResult(t, fmt.Sprintf("%s/workers=%d", name, workers), got[i], want[i])
						}
						// one index for every budget and worker count, as a
						// server keeps one per dataset
						got, err = CompareStrategiesWithIndex(sp.dirty, sp.valid, sp.test, indexes[sp.name], oracle, strategies, m.newModel, batch, budget, workers)
						if err != nil {
							t.Fatalf("%s workers=%d: %v", name, workers, err)
						}
						for i := range got {
							sameResult(t, fmt.Sprintf("%s/with-index/workers=%d", name, workers), got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// CompareStrategiesWithIndex rejects a missing index and one whose row
// counts do not match the split, and an index over other features of the
// right shape is never re-voted: every round refits, and the results are
// still CompareStrategiesParallel's.
func TestCompareStrategiesWithIndexChecksIndex(t *testing.T) {
	dirty, valid, test, truth := tieSplit(t, 40, 9)
	oracle := &LabelOracle{Truth: truth}
	strategies := []Strategy{&RandomStrategy{Seed: 4}, &KNNShapleyStrategy{K: 3}}
	newModel := func() ml.Classifier { return ml.NewKNN(3) }
	compare := func(ix *ml.NeighborIndex) ([]*Result, error) {
		return CompareStrategiesWithIndex(dirty, valid, test, ix, oracle, strategies, newModel, 5, 15, 2)
	}
	if _, err := compare(nil); !errors.Is(err, nderr.ErrEmptyInput) {
		t.Errorf("nil index err = %v, want ErrEmptyInput", err)
	}
	for _, c := range []struct {
		name           string
		train, queries *ml.Dataset
	}{{"train rows", dirty.Subset([]int{0, 1, 2}), test}, {"query rows", dirty, valid.Subset([]int{0})}} {
		ix, err := ml.NewNeighborIndex(c.train, c.queries, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := compare(ix); !errors.Is(err, nderr.ErrShapeMismatch) {
			t.Errorf("%s: err = %v, want ErrShapeMismatch", c.name, err)
		}
	}
	want, err := CompareStrategiesParallel(dirty, valid, test, oracle, strategies, newModel, 5, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	other, _, _, _ := tieSplit(t, 40, 10)
	ix, err := ml.NewNeighborIndex(other, test, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := compare(ix)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		sameResult(t, "other features", got[i], want[i])
	}
}
