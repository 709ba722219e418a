package pipeline

import (
	"fmt"
	"math"

	"nde/internal/ml"
	"nde/internal/nderr"
	"nde/internal/obs"
	"nde/internal/par"
	"nde/internal/prov"
)

// This file implements data-centric what-if analysis (Grafberger, Groth,
// Schelter; SIGMOD 2023): answering many "what would the model quality be
// if these source tuples were gone?" questions WITHOUT re-running the
// pipeline per variant. Because every featurized output row carries its
// provenance product, a removal variant reduces to a boolean filter over
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
// pipeline tests (a row survives exactly when its product names no
// removed tuple ≡ pipeline replay), which covers removals outside a left
// join's right, null-supplying side: for those the results equal full
// replays at a fraction of the cost. A variant that removes a tuple a
// left join matched drops the rows that matched it, where a replay would
// keep them with nulls (see Pipeline.Replay).
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
	// private neighbor index over its surviving rows from scratch instead
	// of voting over one index of the whole batch. This is the
	// determinism oracle — results are bit-for-bit identical to the fast
	// path (asserted in tests), it just does the O(n·d·q) work per variant
	// the fast path skips.
	ForceRebuild bool
}

// WhatIfRemovalsConfig is the fully configurable what-if evaluator. When
// the model factory produces a *ml.KNN (the default debugging model), the
// batch builds one exact neighbor index over the full featurized data and
// hands it to WhatIfRemovalsWithIndex: no distance kernel, selection or
// derived index per variant. A caller that holds the index already (an
// ml.IndexStore owner) calls WhatIfRemovalsWithIndex itself and builds
// nothing. Non-kNN factories use the generic retrain path unchanged.
func WhatIfRemovalsConfig(ft *Featurized, variants []RemovalVariant, newModel func() ml.Classifier, valid *ml.Dataset, cfg WhatIfConfig) ([]WhatIfResult, error) {
	if newModel == nil {
		return nil, fmt.Errorf("pipeline: WhatIfRemovals needs a model factory")
	}
	knnK := 0
	if knn, ok := newModel().(*ml.KNN); ok && knn.K >= 1 {
		knnK = knn.K
	}
	if knnK > 0 && !cfg.ForceRebuild && ft.Data.Len() > 0 && valid != nil {
		// One exact index over the unmodified featurized data; every
		// variant votes over its order. A build failure (e.g. non-finite
		// features a caller slipped past featurization) falls back to the
		// generic retrain path, which reports the same condition per variant.
		if ix, err := ml.NewNeighborIndex(ft.Data, valid, cfg.Workers); err == nil {
			return WhatIfRemovalsWithIndex(ft, variants, ix, knnK, valid, cfg.Workers)
		}
	}
	if knnK > 0 && cfg.ForceRebuild {
		// the determinism oracle: each variant's index built from scratch
		return evalVariants(ft, variants, cfg.Workers, func(alive []bool, surviving int) (float64, error) {
			ix, err := ml.NewNeighborIndex(ft.Data.Subset(aliveRows(alive, surviving)), valid, 1)
			if err != nil {
				return 0, err
			}
			return ml.Accuracy(valid.Y, ix.PredictBatch(knnK)), nil
		})
	}
	return evalVariants(ft, variants, cfg.Workers, func(alive []bool, surviving int) (float64, error) {
		return ml.EvaluateAccuracy(newModel(), ft.Data.Subset(aliveRows(alive, surviving)), valid)
	})
}

// WhatIfRemovalsWithIndex evaluates the batch for a k-NN model over ix, an
// exact neighbor index whose training rows are ft.Data's and whose
// queries are valid's (by features: its labels are never read). Every
// variant, a baseline included, votes ft.Data.Y over the first k
// surviving rows of each query's cached order
// (ml.NeighborIndex.PredictSurvivors) and scores the votes against
// valid.Y. The results are bit-for-bit those of WhatIfRemovalsConfig with
// ForceRebuild and a k-NN factory, at any worker count (<= 0 =
// GOMAXPROCS). k < 1 returns ErrBadK, and a valid split whose length
// differs from ix's queries ErrShapeMismatch.
func WhatIfRemovalsWithIndex(ft *Featurized, variants []RemovalVariant, ix *ml.NeighborIndex, k int, valid *ml.Dataset, workers int) ([]WhatIfResult, error) {
	if k < 1 {
		return nil, nderr.BadK("pipeline: what-if", k, ix.Train.Len())
	}
	if valid.Len() != ix.Queries.Len() {
		return nil, nderr.Mismatch("pipeline: what-if validation rows", ix.Queries.Len(), valid.Len())
	}
	out, err := evalVariants(ft, variants, workers, func(alive []bool, _ int) (float64, error) {
		preds, err := ix.PredictSurvivors(k, ft.Data.Y, alive)
		if err != nil {
			return 0, err
		}
		return ml.Accuracy(valid.Y, preds), nil
	})
	obs.Count("whatif_delta_variants_total", int64(len(variants)))
	return out, err
}

// evalVariants evaluates every variant of the batch on workers: it finds
// the output rows that survive the variant's removals (batchLineage) and,
// unless none does, scores them with metric. A variant that removes every
// surviving row reports the documented NaN sentinel rather than failing
// the batch. metric runs concurrently across variants, so it may only
// read shared state and write what it allocates; the alive mask it gets
// is its worker's, which the next variant reuses, so metric must only
// read it. Results are reduced in variant order, so they — including
// which error is reported when several variants fail — are identical for
// any worker count.
func evalVariants(ft *Featurized, variants []RemovalVariant, workers int, metric func(alive []bool, surviving int) (float64, error)) ([]WhatIfResult, error) {
	sp := obs.StartSpan("pipeline.whatif")
	sp.SetInt("variants", int64(len(variants))).
		SetInt("workers", int64(par.Workers(workers, len(variants))))
	defer sp.End()

	lin := newBatchLineage(ft.Prov, variants)
	masks := make([][]bool, par.Workers(workers, len(variants)))
	out := make([]WhatIfResult, len(variants))
	_, err := par.ForErr("pipeline.whatif", workers, len(variants), func(w, i int) error {
		vsp := sp.StartChild("pipeline.whatif.variant")
		vsp.SetStr("name", variants[i].Name)
		defer vsp.End()
		if masks[w] == nil {
			masks[w] = lin.newMask()
		}
		alive := masks[w]
		surviving := lin.survivors(alive, variants[i].Remove)
		defer lin.restore(alive, variants[i].Remove)
		res := WhatIfResult{Name: variants[i].Name, Metric: math.NaN(), Surviving: surviving}
		if surviving > 0 {
			m, err := metric(alive, surviving)
			if err != nil {
				return fmt.Errorf("pipeline: what-if variant %q: %w", variants[i].Name, err)
			}
			res.Metric = m
		}
		out[i] = res
		vsp.SetInt("surviving", int64(surviving))
		return nil
	})
	obs.Count("whatif_variants_total", int64(len(variants)))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// batchLineage answers, for each variant of one what-if batch, which
// featurized output rows survive its removals. A row's provenance is one
// product of source tuples, so the row dies exactly when a variant
// removes one of them: one pass over the products records, for every
// tuple the batch removes, the rows whose product names it, and a
// variant clears its own tuples' rows from an all-alive mask, one per
// worker, and sets them back once scored. Read-only once built, so
// variants use it concurrently.
type batchLineage struct {
	rows    int                    // output rows
	touched map[prov.TupleID][]int // removed tuple → ascending rows naming it
}

// lineageFilterBits sizes the pass's row filter: a tuple is looked up in
// the removal map only if a removed tuple's row number equals its own
// modulo this, so most tuples a batch does not remove cost one bit test
// instead of a map lookup.
const lineageFilterBits = 4096

func newBatchLineage(polys []prov.Polynomial, variants []RemovalVariant) *batchLineage {
	l := &batchLineage{rows: len(polys), touched: map[prov.TupleID][]int{}}
	var filter [lineageFilterBits / 64]uint64
	for _, v := range variants {
		for _, id := range v.Remove {
			l.touched[id] = nil
			r := uint(id.Row) % lineageFilterBits
			filter[r/64] |= 1 << (r % 64)
		}
	}
	for o, p := range polys {
		for _, id := range p {
			if r := uint(id.Row) % lineageFilterBits; filter[r/64]&(1<<(r%64)) == 0 {
				continue
			}
			if rows, ok := l.touched[id]; ok {
				l.touched[id] = append(rows, o)
			}
		}
	}
	return l
}

// newMask returns an all-alive mask over the output rows.
func (l *batchLineage) newMask() []bool {
	alive := make([]bool, l.rows)
	for o := range alive {
		alive[o] = true
	}
	return alive
}

// survivors clears from alive, an all-alive mask, the output rows that
// remove's tuples name, and returns how many rows it keeps. remove must
// be among the removals the lineage was built for; restore(alive,
// remove) makes the mask all-alive again.
func (l *batchLineage) survivors(alive []bool, remove []prov.TupleID) int {
	n := l.rows
	for _, id := range remove {
		for _, o := range l.touched[id] {
			if alive[o] {
				alive[o] = false
				n--
			}
		}
	}
	return n
}

// restore sets back the rows survivors cleared for remove.
func (l *batchLineage) restore(alive []bool, remove []prov.TupleID) {
	for _, id := range remove {
		for _, o := range l.touched[id] {
			alive[o] = true
		}
	}
}

// aliveRows lists the n rows set in alive, in row order.
func aliveRows(alive []bool, n int) []int {
	rows := make([]int, 0, n)
	for o, ok := range alive {
		if ok {
			rows = append(rows, o)
		}
	}
	return rows
}
