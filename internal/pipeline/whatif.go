package pipeline

import (
	"fmt"
	"math"

	"nde/internal/ml"
	"nde/internal/obs"
	"nde/internal/par"
	"nde/internal/prov"
)

// This file implements data-centric what-if analysis (Grafberger, Groth,
// Schelter; SIGMOD 2023): answering many "what would the model quality be
// if these source tuples were gone?" questions WITHOUT re-running the
// pipeline per variant. Because every featurized output row carries its
// provenance polynomial, a removal variant reduces to a boolean filter over
// the already-computed feature matrix — orders of magnitude cheaper than
// replaying joins, filters and encoders.

// RemovalVariant is one intervention: drop the given source tuples.
type RemovalVariant struct {
	Name   string
	Remove []prov.TupleID
}

// WhatIfResult pairs a variant with the metric after retraining on the
// surviving output rows. A variant that removes every surviving output row
// is reported with Surviving == 0 and Metric == NaN (there is no model to
// evaluate) instead of failing the whole batch; check with math.IsNaN
// before aggregating.
type WhatIfResult struct {
	Name      string
	Metric    float64
	Surviving int
}

// WhatIfRemovals evaluates every removal variant against a featurized
// pipeline output: for each variant it selects the output rows whose
// provenance survives the removal, retrains a fresh model, and reports the
// metric. Correctness relies on the provenance contract verified in the
// pipeline tests (polynomial evaluation ≡ pipeline replay): the results
// equal full replays at a fraction of the cost.
//
// Variants are evaluated concurrently on the shared worker pool (every
// variant's filter → subset → retrain → evaluate chain is independent);
// this is WhatIfRemovalsParallel with the automatic worker count. newModel
// must be safe to call from concurrent goroutines — returning a fresh
// classifier per call, as every existing factory does, is sufficient.
func WhatIfRemovals(ft *Featurized, variants []RemovalVariant, newModel func() ml.Classifier, valid *ml.Dataset) ([]WhatIfResult, error) {
	return WhatIfRemovalsParallel(ft, variants, newModel, valid, 0)
}

// WhatIfRemovalsParallel is WhatIfRemovals with an explicit worker count
// (<= 0 = GOMAXPROCS). Results are reduced in variant order, so the output
// — including which error is reported when several variants fail — is
// bit-for-bit identical for any worker count, including 1.
func WhatIfRemovalsParallel(ft *Featurized, variants []RemovalVariant, newModel func() ml.Classifier, valid *ml.Dataset, workers int) ([]WhatIfResult, error) {
	return WhatIfRemovalsConfig(ft, variants, newModel, valid, WhatIfConfig{Workers: workers})
}

// WhatIfConfig tunes WhatIfRemovalsConfig.
type WhatIfConfig struct {
	// Workers bounds the variant fan-out (<= 0 = GOMAXPROCS).
	Workers int
	// ForceRebuild disables the kNN fast path: every variant builds a
	// private neighbor index over its surviving rows from scratch, and the
	// shared index store is neither read nor filled. This is the
	// determinism oracle — results are bit-for-bit identical to the fast
	// path (asserted in tests), it just does the O(n·d·q) work per variant
	// the fast path skips.
	ForceRebuild bool
}

// WhatIfRemovalsConfig is the fully configurable what-if evaluator. When
// the model factory produces a *ml.KNN (the default debugging model), the
// batch takes one exact neighbor index over the full featurized data from
// the process-wide store (ml.SharedIndex, the entry kNN-Shapley scoring
// uses), and every variant, the baseline included, votes the caller's
// labels over the first k surviving rows of each query's cached order
// (ml.NeighborIndex.PredictSurvivors): no distance kernel, selection or
// derived index per variant, and none at all once the geometry is stored.
// Non-kNN factories use the generic retrain path unchanged.
func WhatIfRemovalsConfig(ft *Featurized, variants []RemovalVariant, newModel func() ml.Classifier, valid *ml.Dataset, cfg WhatIfConfig) ([]WhatIfResult, error) {
	if newModel == nil {
		return nil, fmt.Errorf("pipeline: WhatIfRemovals needs a model factory")
	}
	workers := cfg.Workers
	sp := obs.StartSpan("pipeline.whatif")
	sp.SetInt("variants", int64(len(variants))).
		SetInt("workers", int64(par.Workers(workers, len(variants))))
	defer sp.End()

	knnK := 0
	if knn, ok := newModel().(*ml.KNN); ok && knn.K >= 1 {
		knnK = knn.K
	}
	var base *ml.NeighborIndex
	if knnK > 0 && !cfg.ForceRebuild && ft.Data.Len() > 0 {
		// One shared exact index over the unmodified featurized data; every
		// variant votes over its order. A build failure (e.g. non-finite
		// features a caller slipped past featurization) falls back to the
		// generic retrain path, which reports the same condition per variant.
		if ix, err := ml.SharedIndex(ft.Data, valid, workers); err == nil {
			base = ix
		}
	}

	out := make([]WhatIfResult, len(variants))
	_, err := par.ForErr("pipeline.whatif", workers, len(variants), func(_, i int) error {
		vsp := sp.StartChild("pipeline.whatif.variant")
		vsp.SetStr("name", variants[i].Name)
		defer vsp.End()
		var res WhatIfResult
		var err error
		if knnK > 0 && (base != nil || cfg.ForceRebuild) {
			res, err = evalRemovalVariantKNN(ft, variants[i], base, knnK, valid)
		} else {
			res, err = evalRemovalVariant(ft, variants[i], newModel, valid)
		}
		if err != nil {
			return fmt.Errorf("pipeline: what-if variant %q: %w", variants[i].Name, err)
		}
		out[i] = res
		vsp.SetInt("surviving", int64(res.Surviving))
		return nil
	})
	obs.Count("whatif_variants_total", int64(len(variants)))
	if base != nil {
		obs.Count("whatif_delta_variants_total", int64(len(variants)))
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// evalRemovalVariant runs one variant's filter → subset → retrain →
// evaluate chain. It touches only its arguments and freshly allocated
// state, which is what makes the variant fan-out safe.
func evalRemovalVariant(ft *Featurized, v RemovalVariant, newModel func() ml.Classifier, valid *ml.Dataset) (WhatIfResult, error) {
	keep := survivors(ft, v)
	if len(keep) == 0 {
		// the variant removed every surviving output row: report the
		// documented NaN sentinel rather than failing the whole batch
		return WhatIfResult{Name: v.Name, Metric: math.NaN(), Surviving: 0}, nil
	}
	subset := ft.Data.Subset(keep)
	metric, err := ml.EvaluateAccuracy(newModel(), subset, valid)
	if err != nil {
		return WhatIfResult{}, err
	}
	return WhatIfResult{Name: v.Name, Metric: metric, Surviving: len(keep)}, nil
}

// survivors returns, in row order, the featurized output rows whose
// provenance still holds once v's source tuples are removed.
func survivors(ft *Featurized, v RemovalVariant) []int {
	removed := make(map[prov.TupleID]bool, len(v.Remove))
	for _, id := range v.Remove {
		removed[id] = true
	}
	alive := func(id prov.TupleID) bool { return !removed[id] }
	keep := make([]int, 0, len(ft.Prov))
	for o, p := range ft.Prov {
		if p.EvalBool(alive) {
			keep = append(keep, o)
		}
	}
	return keep
}

// evalRemovalVariantKNN answers one variant for a kNN model. With a base
// index it votes ft.Data.Y over the surviving rows of the base's cached
// orders (PredictSurvivors); with base == nil (the ForceRebuild oracle) it
// builds the variant's index from scratch. Both arms classify by the same
// exact (distance, index) top-k, so their metrics are bit-for-bit
// identical.
func evalRemovalVariantKNN(ft *Featurized, v RemovalVariant, base *ml.NeighborIndex, k int, valid *ml.Dataset) (WhatIfResult, error) {
	keep := survivors(ft, v)
	if len(keep) == 0 {
		return WhatIfResult{Name: v.Name, Metric: math.NaN(), Surviving: 0}, nil
	}
	var preds []int
	var err error
	if base != nil {
		alive := make([]bool, ft.Data.Len())
		for _, o := range keep {
			alive[o] = true
		}
		preds, err = base.PredictSurvivors(k, ft.Data.Y, alive)
	} else {
		var ix *ml.NeighborIndex
		ix, err = ml.NewNeighborIndex(ft.Data.Subset(keep), valid, 1)
		if err == nil {
			preds = ix.PredictBatch(k)
		}
	}
	if err != nil {
		return WhatIfResult{}, err
	}
	return WhatIfResult{Name: v.Name, Metric: ml.Accuracy(valid.Y, preds), Surviving: len(keep)}, nil
}

// CompareWithReplay runs a removal variant both ways — via the provenance
// shortcut and via a full pipeline replay + featurize — and returns both
// metrics. Used by tests and benchmarks to validate and quantify the
// optimization.
func CompareWithReplay(
	p *Pipeline,
	outNode *Node,
	ft *Featurized,
	variant RemovalVariant,
	featurize func(*Result) (*ml.Dataset, error),
	newModel func() ml.Classifier,
	valid *ml.Dataset,
) (fast, slow float64, err error) {
	fastRes, err := WhatIfRemovals(ft, []RemovalVariant{variant}, newModel, valid)
	if err != nil {
		return 0, 0, err
	}
	fast = fastRes[0].Metric

	removed := make(map[prov.TupleID]bool, len(variant.Remove))
	for _, id := range variant.Remove {
		removed[id] = true
	}
	replayed, err := p.Replay(outNode, func(id prov.TupleID) bool { return removed[id] })
	if err != nil {
		return 0, 0, err
	}
	train, err := featurize(replayed)
	if err != nil {
		return 0, 0, err
	}
	slow, err = ml.EvaluateAccuracy(newModel(), train, valid)
	if err != nil {
		return 0, 0, err
	}
	return fast, slow, nil
}
