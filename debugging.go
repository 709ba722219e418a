package nde

import (
	"fmt"
	"time"

	"nde/internal/challenge"
	"nde/internal/cleaning"
	"nde/internal/importance"
	"nde/internal/ml"
	"nde/internal/nderr"
	"nde/internal/pipeline"
	"nde/internal/prov"
	"nde/internal/uncertain"
)

// Re-exported debugging types for the facade's consumers.
type (
	// CleaningStrategy ranks training rows for prioritized cleaning.
	CleaningStrategy = cleaning.Strategy
	// CleaningResult is the outcome of an iterative cleaning run.
	CleaningResult = cleaning.Result
	// Challenge is the §3.2 data-debugging game.
	Challenge = challenge.Challenge
	// Leaderboard ranks challenge submissions.
	Leaderboard = challenge.Leaderboard
	// Subgroup is a fairness-debugging explanation.
	Subgroup = importance.Subgroup
	// FairnessRange bounds a fairness metric over possible worlds.
	FairnessRange = uncertain.FairnessRange
	// RAGCorpus is a retrieval corpus with per-document importance.
	RAGCorpus = importance.RAGCorpus
	// RemovalVariant is one what-if intervention over pipeline source data.
	RemovalVariant = pipeline.RemovalVariant
	// WhatIfResult is the metric of one what-if variant.
	WhatIfResult = pipeline.WhatIfResult
	// WhatIfOptions tunes what-if evaluation: worker count and whether to
	// force the full-rebuild determinism oracle instead of the neighbor
	// delta fast path (results are bit-for-bit identical either way).
	WhatIfOptions = pipeline.WhatIfConfig
	// TupleID identifies one row of one pipeline source table.
	TupleID = prov.TupleID
)

// WhatIf evaluates removal variants over a featurized pipeline output via
// the provenance shortcut (no pipeline replays), retraining the default
// model per variant. Variants are evaluated concurrently on the shared
// worker pool; results come back in variant order and are bit-for-bit
// identical to a serial run. A variant that removes every surviving row
// reports Surviving: 0 with a NaN metric instead of failing the batch.
// Safe for concurrent callers. Use WhatIfParallel to pin the worker count.
func WhatIf(ft *Featurized, variants []RemovalVariant, valid *Dataset) ([]WhatIfResult, error) {
	return WhatIfParallel(ft, variants, valid, 0)
}

// WhatIfParallel is WhatIf with an explicit worker count (<= 0 = automatic,
// 1 = serial). Every worker count yields identical results; the knob only
// trades latency for CPU.
func WhatIfParallel(ft *Featurized, variants []RemovalVariant, valid *Dataset, workers int) ([]WhatIfResult, error) {
	return WhatIfWithOptions(ft, variants, valid, WhatIfOptions{Workers: workers})
}

// WhatIfWithOptions is WhatIf with full control. Since the default model
// is a kNN, variants are normally answered by deriving a delta index from
// one shared base over the featurized data — each variant costs an
// O(queries·k) repair instead of a fresh distance matrix — while
// ForceRebuild pins the per-variant full rebuild, the determinism oracle
// the delta path is tested bit-for-bit against.
func WhatIfWithOptions(ft *Featurized, variants []RemovalVariant, valid *Dataset, opts WhatIfOptions) (_ []WhatIfResult, err error) {
	defer recordOp("WhatIfParallel", time.Now(), len(variants), opts.Workers, &err)
	if ft == nil || ft.Data == nil {
		return nil, nderr.Empty("nde: featurized pipeline output is nil")
	}
	if err := checkPair("pipeline output", ft.Data, "valid", valid); err != nil {
		return nil, err
	}
	return pipeline.WhatIfRemovalsConfig(ft, variants, func() ml.Classifier { return DefaultModel() }, valid, opts)
}

// ResetNeighborIndexCache drops every cached kNN neighbor index. The cache
// holds the distance geometry of the last few (train, valid) pairs seen by
// kNN-Shapley scoring (at most 4 indexes); long-running processes that churn
// through many datasets can call this to release the memory eagerly. Safe
// for concurrent use; in-flight computations keep their own reference and
// finish unaffected.
func ResetNeighborIndexCache() {
	defer recordOp("ResetNeighborIndexCache", time.Now(), 0, 0, nil)
	importance.ResetNeighborIndexCache()
}

// SelfConfidenceScores ranks training examples by out-of-fold predicted
// probability of their own label (confident learning); low scores indicate
// likely label errors.
func SelfConfidenceScores(train *Dataset, seed int64) (_ Scores, err error) {
	defer recordOp("SelfConfidenceScores", time.Now(), datasetRows(train), 0, &err)
	if err := checkTrainable("train", train); err != nil {
		return nil, err
	}
	return importance.SelfConfidence(train, importance.NoiseConfig{Seed: seed})
}

// MarginScores ranks training examples by the out-of-fold margin between
// their label's probability and the best other class (AUM-style).
func MarginScores(train *Dataset, seed int64) (_ Scores, err error) {
	defer recordOp("MarginScores", time.Now(), datasetRows(train), 0, &err)
	if err := checkTrainable("train", train); err != nil {
		return nil, err
	}
	return importance.MarginScore(train, importance.NoiseConfig{Seed: seed})
}

// InfluenceScores computes influence-function importance for a logistic
// model: the approximate change in validation loss caused by removing each
// training point. Harmful points score negative.
func InfluenceScores(train, valid *Dataset) (_ Scores, err error) {
	defer recordOp("InfluenceScores", time.Now(), datasetRows(train), 0, &err)
	if err := checkTrainable("train", train); err != nil {
		return nil, err
	}
	if err := checkPair("train", train, "valid", valid); err != nil {
		return nil, err
	}
	return importance.Influence(train, valid, importance.InfluenceConfig{})
}

// DataShapleyScores estimates Monte-Carlo (TMC) Data Shapley values with
// the default kNN utility — the expensive general-purpose estimator, for
// when the model under debugging is not a kNN.
func DataShapleyScores(train, valid *Dataset, permutations int, seed int64) (_ Scores, err error) {
	defer recordOp("DataShapleyScores", time.Now(), datasetRows(train), 0, &err)
	if err := checkTrainable("train", train); err != nil {
		return nil, err
	}
	if err := checkPair("train", train, "valid", valid); err != nil {
		return nil, err
	}
	if permutations < 1 {
		return nil, fmt.Errorf("nde: Data Shapley needs at least one permutation, got %d: %w", permutations, nderr.ErrDegenerateInput)
	}
	u := importance.AccuracyUtility(func() ml.Classifier { return DefaultModel() }, train, valid)
	return importance.MCShapley(train.Len(), u, importance.MCShapleyConfig{
		Permutations: permutations,
		Seed:         seed,
		Truncation:   0.01,
	})
}

// IterativeCleaning runs the prioritized cleaning loop with ground-truth
// label repairs: rank with kNN-Shapley, clean batches, retrain, repeat
// until the budget is spent. truth supplies the hidden correct labels,
// one non-negative label per training row.
func IterativeCleaning(train, valid, test *Dataset, truth []int, batch, budget int) (_ *CleaningResult, err error) {
	defer recordOp("IterativeCleaning", time.Now(), datasetRows(train), 0, &err)
	if err := checkTrainable("train", train); err != nil {
		return nil, err
	}
	if err := checkPair("train", train, "valid", valid); err != nil {
		return nil, err
	}
	if err := checkPair("train", train, "test", test); err != nil {
		return nil, err
	}
	if len(truth) != train.Len() {
		return nil, fmt.Errorf("nde: %d truth labels for %d training rows: %w", len(truth), train.Len(), nderr.ErrShapeMismatch)
	}
	for i, y := range truth {
		if y < 0 {
			return nil, fmt.Errorf("nde: negative truth label %d at row %d: %w", y, i, nderr.ErrDegenerateInput)
		}
	}
	if batch < 1 || budget < 1 {
		return nil, fmt.Errorf("nde: cleaning batch %d and budget %d must be positive: %w", batch, budget, nderr.ErrDegenerateInput)
	}
	return cleaning.IterativeClean(train, valid, test,
		&cleaning.LabelOracle{Truth: truth},
		&cleaning.KNNShapleyStrategy{K: 5},
		func() ml.Classifier { return DefaultModel() },
		batch, budget)
}

// NewDebuggingChallenge builds a §3.2 challenge over featurized data: the
// contestant sees dirty training data and a validation set, and submits row
// ids to the oracle within the repair budget.
func NewDebuggingChallenge(dirty *Dataset, truth []int, valid, hiddenTest *Dataset, budget int) (_ *Challenge, err error) {
	defer recordOp("NewDebuggingChallenge", time.Now(), datasetRows(dirty), 0, &err)
	if err := checkDataset("dirty train", dirty); err != nil {
		return nil, err
	}
	if err := checkPair("dirty train", dirty, "valid", valid); err != nil {
		return nil, err
	}
	if err := checkPair("dirty train", dirty, "hidden test", hiddenTest); err != nil {
		return nil, err
	}
	return challenge.New(dirty, truth, valid, hiddenTest, func() ml.Classifier { return DefaultModel() }, budget)
}

// FairnessExplanations runs the Gopher-style subgroup search: training
// subgroups (conjunctions of attribute=value predicates over attrs) whose
// removal most reduces the equalized-odds violation on the grouped
// validation set. It returns the baseline violation and the top
// explanations.
func FairnessExplanations(train *Dataset, attrs *Frame, valid *Dataset, topK int) (_ float64, _ []Subgroup, err error) {
	defer recordOp("FairnessExplanations", time.Now(), datasetRows(train), 0, &err)
	if err := checkTrainable("train", train); err != nil {
		return 0, nil, err
	}
	if err := checkDataset("valid", valid); err != nil {
		return 0, nil, err
	}
	if attrs == nil {
		return 0, nil, nderr.Empty("nde: attribute frame is nil")
	}
	if attrs.NumRows() != train.Len() {
		return 0, nil, fmt.Errorf("nde: %d attribute rows for %d training rows: %w", attrs.NumRows(), train.Len(), nderr.ErrShapeMismatch)
	}
	return importance.GopherExplanations(train, attrs, valid, importance.GopherConfig{TopK: topK})
}

// EstimateFairnessRange bounds the equalized-odds violation across the
// possible worlds of symbolically uncertain training data (consistent range
// approximation).
func EstimateFairnessRange(train *SymbolicDataset, valid *Dataset, worlds int, seed int64) (_ *FairnessRange, err error) {
	defer recordOp("EstimateFairnessRange", time.Now(), datasetRows(valid), 0, &err)
	if train == nil {
		return nil, nderr.Empty("nde: symbolic training set is nil")
	}
	if err := checkDataset("valid", valid); err != nil {
		return nil, err
	}
	return uncertain.EstimateFairnessRange(train, valid, uncertain.FairnessRangeConfig{Worlds: worlds, Seed: seed})
}

// NewRAGCorpus embeds a document corpus for retrieval-augmented inference
// with per-document importance debugging.
func NewRAGCorpus(docs []string, labels []int) (_ *RAGCorpus, err error) {
	defer recordOp("NewRAGCorpus", time.Now(), len(docs), 0, &err)
	if len(docs) == 0 {
		return nil, nderr.Empty("nde: document corpus")
	}
	if len(docs) != len(labels) {
		return nil, fmt.Errorf("nde: %d documents for %d labels: %w", len(docs), len(labels), nderr.ErrShapeMismatch)
	}
	return importance.NewRAGCorpus(docs, labels)
}

// ScreenTrainTestLeakage checks two letter frames for overlapping person
// ids — the most common data-leakage bug in split construction. It returns
// human-readable issues (empty = clean).
func ScreenTrainTestLeakage(train, test *Frame) (_ []string, err error) {
	defer recordOp("ScreenTrainTestLeakage", time.Now(), frameRows(train), 0, &err)
	if err := checkFrame("train", train, "person_id"); err != nil {
		return nil, err
	}
	if err := checkFrame("test", test, "person_id"); err != nil {
		return nil, err
	}
	issues, err := pipeline.ScreenLeakage(train, test, []string{"person_id"})
	if err != nil {
		return nil, err
	}
	out := make([]string, len(issues))
	for i, is := range issues {
		out[i] = is.String()
	}
	return out, nil
}
