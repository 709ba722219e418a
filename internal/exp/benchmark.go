package exp

import (
	"fmt"

	"nde"
	"nde/internal/datagen"
	"nde/internal/importance"
	"nde/internal/ml"
	"nde/internal/obs"
)

// E18Result carries the error-type × method detection matrix.
type E18Result struct {
	Table *Table
	// Precision[errorType][method] is detection precision@k.
	Precision map[string]map[string]float64
}

// E18DetectionBenchmark runs an OpenDataVal-style unified benchmark
// (Jiang et al., NeurIPS 2023 — cited in §2.4): the same importance methods
// are scored on *different error types* — label flips, feature outliers and
// out-of-distribution rows — because a method that excels at one error
// class can be blind to another. Detection precision@k is reported per
// cell, with k = the number of injected errors.
func E18DetectionBenchmark(n int, seed int64) (*E18Result, error) {
	s := nde.LoadRecommendationLetters(n, seed)
	dTrain, dValid, _, err := nde.FeaturizeLetterSplits(s.Train, s.Valid, s.Test)
	if err != nil {
		return nil, err
	}

	type corruption struct {
		name    string
		corrupt func() (*ml.Dataset, map[int]bool, error)
	}
	corruptions := []corruption{
		{"label-flips", func() (*ml.Dataset, map[int]bool, error) {
			return datagen.FlipDatasetLabels(dTrain, 0.12, seed+1)
		}},
		{"feature-outliers", func() (*ml.Dataset, map[int]bool, error) {
			out := dTrain.Clone()
			corrupted := make(map[int]bool)
			// blow up the rating feature of every 8th row
			f := out.Dim() - 1
			for i := 0; i < out.Len(); i += 8 {
				out.X.Set(i, f, float64(out.X.At(i, f)*50)+25)
				corrupted[i] = true
			}
			return out, corrupted, nil
		}},
		{"ood-rows", func() (*ml.Dataset, map[int]bool, error) {
			k := dTrain.Len() / 8
			out, appended := datagen.AppendOOD(dTrain, k, 4, seed+2)
			corrupted := make(map[int]bool, len(appended))
			for _, i := range appended {
				corrupted[i] = true
			}
			return out, corrupted, nil
		}},
	}

	type method struct {
		name string
		run  func(train *ml.Dataset) (importance.Scores, error)
	}
	methods := []method{
		{"knn-shapley", func(train *ml.Dataset) (importance.Scores, error) {
			return importance.KNNShapley(5, train, dValid)
		}},
		{"influence", func(train *ml.Dataset) (importance.Scores, error) {
			return importance.Influence(train, dValid, importance.InfluenceConfig{})
		}},
		{"self-confidence", func(train *ml.Dataset) (importance.Scores, error) {
			return importance.SelfConfidence(train, importance.NoiseConfig{Seed: seed})
		}},
	}

	cols := []string{"error type", "k"}
	for _, m := range methods {
		cols = append(cols, m.name)
	}
	t := &Table{
		ID:      "E18",
		Title:   "§2.4 — unified detection benchmark: error types × importance methods (precision@k)",
		Columns: cols,
		Notes: "no single method dominates every error class: isolated errors (outliers, OOD) are " +
			"dead weight for kNN-Shapley (value ~0, never retrieved) while uncertainty scores flag them",
	}
	res := &E18Result{Table: t, Precision: make(map[string]map[string]float64)}
	bsp := obs.StartSpan("exp.e18_detection_benchmark")
	bsp.SetInt("n", int64(n)).SetInt("cells", int64(len(corruptions)*len(methods)))
	defer bsp.End()
	prog := obs.NewProgress("e18_cells", len(corruptions)*len(methods))
	defer prog.Done()
	for _, c := range corruptions {
		train, corrupted, err := c.corrupt()
		if err != nil {
			return nil, err
		}
		k := len(corrupted)
		row := []string{c.name, fmt.Sprintf("%d", k)}
		res.Precision[c.name] = make(map[string]float64)
		for _, m := range methods {
			msp := obs.StartSpan("exp.e18_method")
			msp.SetStr("error_type", c.name).SetStr("method", m.name).SetInt("rows", int64(train.Len()))
			scores, err := m.run(train)
			if err != nil {
				msp.End()
				return nil, fmt.Errorf("exp: %s on %s: %w", m.name, c.name, err)
			}
			prec := scores.PrecisionAtK(corrupted, k)
			res.Precision[c.name][m.name] = prec
			row = append(row, f3(prec))
			obs.Inc("exp_benchmark_method_runs_total")
			obs.ObserveWith("exp_benchmark_precision_at_k", prec, obs.LinearBuckets(0.1, 0.1, 10))
			prog.Tick(1)
			msp.SetStr("precision_at_k", f3(prec)).End()
		}
		t.AddRow(row...)
	}
	return res, nil
}
