package exp

import (
	"fmt"
	"time"

	"nde/internal/cleaning"
	"nde/internal/importance"
	"nde/internal/ml"
)

// E5Result carries the per-method detection quality.
type E5Result struct {
	Table      *Table
	Methods    []string
	Precisions map[string]float64
}

// E5MethodComparison compares the surveyed importance methods on the same
// label-error detection task: featurized letters with 15% flipped labels,
// precision@k where k is the number of injected errors. This substantiates
// the survey's claim that cheap proxies (kNN-Shapley, noise scores) remain
// competitive with expensive estimators, and gives attendees a feel for
// the methods' strengths.
func E5MethodComparison(n int, seed int64) (*E5Result, error) {
	dirty, valid, _, corrupted, err := dirtyLetters(n, 0.15, seed)
	if err != nil {
		return nil, err
	}
	k := len(corrupted)
	newKNN := func() ml.Classifier { return ml.NewKNN(5) }
	u := importance.AccuracyUtility(newKNN, dirty, valid)

	type method struct {
		name string
		run  func() (importance.Scores, error)
	}
	methods := []method{
		{"loo", func() (importance.Scores, error) {
			return importance.LeaveOneOut(dirty.Len(), u)
		}},
		{"tmc-shapley", func() (importance.Scores, error) {
			return importance.MCShapley(dirty.Len(), u, importance.MCShapleyConfig{Permutations: 30, Seed: seed, Truncation: 0.01})
		}},
		{"knn-shapley", func() (importance.Scores, error) {
			// pooled path; bit-identical to the sequential closed form
			return importance.KNNShapleyParallel(5, dirty, valid, 0)
		}},
		{"banzhaf", func() (importance.Scores, error) {
			return importance.MCBanzhaf(dirty.Len(), u, importance.SemivalueConfig{SamplesPerPoint: 20, Seed: seed})
		}},
		{"beta(1,4)-shapley", func() (importance.Scores, error) {
			return importance.MCBetaShapley(dirty.Len(), u, 4, 1, importance.SemivalueConfig{SamplesPerPoint: 20, Seed: seed})
		}},
		{"influence", func() (importance.Scores, error) {
			return importance.Influence(dirty, valid, importance.InfluenceConfig{})
		}},
		{"self-confidence", func() (importance.Scores, error) {
			return importance.SelfConfidence(dirty, importance.NoiseConfig{Seed: seed})
		}},
		{"margin", func() (importance.Scores, error) {
			return importance.MarginScore(dirty, importance.NoiseConfig{Seed: seed})
		}},
	}
	t := &Table{
		ID:      "E5",
		Title:   fmt.Sprintf("§2.1 — label-error detection quality of importance methods (precision@%d, %d injected errors)", k, k),
		Columns: []string{"method", "precision@k", "recall@k", "runtime"},
		Notes: "kNN-Shapley is exact and fast; LOO is known to be noisy for kNN utilities " +
			"(removing one point rarely changes any prediction), which the survey cites as " +
			"the motivation for Shapley-style credit assignment",
	}
	res := &E5Result{Table: t, Precisions: make(map[string]float64)}
	for _, m := range methods {
		start := time.Now()
		scores, err := m.run()
		if err != nil {
			return nil, fmt.Errorf("exp: method %s: %w", m.name, err)
		}
		elapsed := time.Since(start)
		prec := scores.PrecisionAtK(corrupted, k)
		rec := scores.RecallAtK(corrupted, k)
		t.AddRow(m.name, f3(prec), f3(rec), elapsed.Round(time.Millisecond).String())
		res.Methods = append(res.Methods, m.name)
		res.Precisions[m.name] = prec
	}
	return res, nil
}

// E6Result carries the scalability measurements.
type E6Result struct {
	Table *Table
	Sizes []int
	// Seconds[method][i] is the runtime at Sizes[i].
	Seconds map[string][]float64
}

// E6Scalability measures the runtime of TMC-Shapley (retraining-based)
// against the closed-form kNN-Shapley as the training set grows — the
// survey's "computational challenges" point: the kNN reduction wins by
// orders of magnitude.
func E6Scalability(seed int64) (*E6Result, error) {
	sizes := []int{50, 100, 200}
	t := &Table{
		ID:      "E6",
		Title:   "§2.1 — Shapley runtime scaling: Monte-Carlo retraining vs. closed-form kNN",
		Columns: []string{"n train", "tmc-shapley", "tmc-parallel", "knn-shapley", "knn-parallel", "speedup"},
		Notes:   "the kNN closed form is O(n log n) per validation point; TMC retrains O(perms · n) times; both parallel columns run on the shared pool and are deterministic for any worker count; each kNN column times a whole call, its own neighbor-index build (distance kernel and order table) included",
	}
	res := &E6Result{Table: t, Sizes: sizes, Seconds: map[string][]float64{"tmc": nil, "tmc-par": nil, "knn": nil, "knn-par": nil}}
	for _, n := range sizes {
		dirty, valid, _, _, err := dirtyLetters(n*2, 0.1, seed) // *2: split keeps 60%
		if err != nil {
			return nil, err
		}
		u := importance.AccuracyUtility(func() ml.Classifier { return ml.NewKNN(5) }, dirty, valid)

		cfg := importance.MCShapleyConfig{Permutations: 10, Seed: seed, Truncation: 0.01}
		start := time.Now()
		if _, err := importance.MCShapley(dirty.Len(), u, cfg); err != nil {
			return nil, err
		}
		tmc := time.Since(start)

		start = time.Now()
		if _, err := importance.MCShapleyParallel(dirty.Len(), u, cfg, 0); err != nil {
			return nil, err
		}
		tmcPar := time.Since(start)

		start = time.Now()
		if _, err := importance.KNNShapley(5, dirty, valid); err != nil {
			return nil, err
		}
		knn := time.Since(start)

		start = time.Now()
		if _, err := importance.KNNShapleyParallel(5, dirty, valid, 0); err != nil {
			return nil, err
		}
		knnPar := time.Since(start)

		speedup := float64(tmc) / float64(knn)
		t.AddRow(fmt.Sprintf("%d", dirty.Len()),
			tmc.Round(time.Millisecond).String(),
			tmcPar.Round(time.Millisecond).String(),
			knn.Round(time.Microsecond).String(),
			knnPar.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0fx", speedup))
		res.Seconds["tmc"] = append(res.Seconds["tmc"], tmc.Seconds())
		res.Seconds["tmc-par"] = append(res.Seconds["tmc-par"], tmcPar.Seconds())
		res.Seconds["knn"] = append(res.Seconds["knn"], knn.Seconds())
		res.Seconds["knn-par"] = append(res.Seconds["knn-par"], knnPar.Seconds())
	}
	return res, nil
}

// E7Result carries the per-strategy cleaning curves.
type E7Result struct {
	Table   *Table
	Results []*cleaning.Result
	AUC     map[string]float64
}

// E7CleaningStrategies runs the §3.1 attendee task: iterative prioritized
// cleaning under a fixed oracle budget, comparing random, noise-score and
// kNN-Shapley prioritization. Importance-guided cleaning should dominate
// random in area under the cleaning curve.
func E7CleaningStrategies(n int, seed int64) (*E7Result, error) {
	dirty, valid, truth, corrupted, err := dirtyLetters(n, 0.2, seed)
	if err != nil {
		return nil, err
	}
	oracle := &cleaning.LabelOracle{Truth: truth}
	newModel := func() ml.Classifier { return ml.NewKNN(5) }
	budget := len(corrupted)
	strategies := []cleaning.Strategy{
		&cleaning.RandomStrategy{Seed: seed},
		&cleaning.NoiseStrategy{Seed: seed},
		&cleaning.KNNShapleyStrategy{K: 5},
	}
	results, err := cleaning.CompareStrategies(dirty, valid, valid, oracle, strategies, newModel, budget/5, budget)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E7",
		Title:   fmt.Sprintf("§3.1 — iterative cleaning strategies (budget %d oracle repairs)", budget),
		Columns: []string{"strategy", "acc before", "acc after", "curve AUC"},
		Notes:   "importance-guided prioritization should dominate random cleaning",
	}
	res := &E7Result{Table: t, Results: results, AUC: make(map[string]float64)}
	for _, r := range results {
		auc := cleaning.AreaUnderCurve(r.Curve)
		res.AUC[r.Strategy] = auc
		t.AddRow(r.Strategy,
			f3(r.Curve[0].Accuracy),
			f3(r.Curve[len(r.Curve)-1].Accuracy),
			f3(auc))
	}
	return res, nil
}
