package importance

import (
	"fmt"

	"nde/internal/ml"
	"nde/internal/obs"
	"nde/internal/pipeline"
)

// AggMode selects how per-output-row importance is folded into source-tuple
// importance when one source tuple supports several pipeline outputs.
type AggMode int

const (
	// AggSum credits a source tuple with the total importance of every
	// output row it supports (Datascope's additive-utility decomposition).
	AggSum AggMode = iota
	// AggMean credits the average instead, de-emphasizing tuples that fan
	// out into many outputs (e.g. hot join keys).
	AggMean
)

// DatascopeConfig controls pipeline-aware Shapley computation.
type DatascopeConfig struct {
	// K is the number of neighbors of the kNN proxy model (default 1,
	// as in the Datascope paper's 1-NN reduction).
	K int
	// Aggregate selects the provenance-group aggregation (default AggSum).
	Aggregate AggMode
}

// Datascope computes importance scores for the rows of one *source table*
// of a provenance-tracked pipeline (Karlaš et al., ICLR 2024). It computes
// exact kNN-Shapley values on the pipeline's featurized output and pushes
// them back through the provenance products: each source tuple is
// credited with the scores of the output rows whose products name it.
// This equals the exact Shapley value over source tuples under the kNN
// utility for map provenance only, where each output names at most one
// tuple of the table and each tuple reaches at most one output. Where a
// tuple forks into several outputs, or an output joins several tuples,
// it is the standard additive approximation (GroupShapley plays the
// grouped game instead).
func Datascope(ft *pipeline.Featurized, valid *ml.Dataset, table string, tableRows int, cfg DatascopeConfig) (Scores, error) {
	if tableRows <= 0 {
		return nil, fmt.Errorf("importance: datascope needs tableRows > 0, got %d", tableRows)
	}
	k := cfg.K
	if k <= 0 {
		k = 1
	}
	sp := obs.StartSpan("importance.datascope")
	sp.SetStr("table", table).SetInt("table_rows", int64(tableRows)).SetInt("outputs", int64(ft.Data.Len()))
	defer sp.End()
	rowScores, err := KNNShapley(k, ft.Data, valid)
	if err != nil {
		return nil, err
	}
	scores := make(Scores, tableRows)
	counts := make([]int, tableRows)
	for o, p := range ft.Prov {
		for _, v := range p {
			if v.Table != table || v.Row >= tableRows {
				continue
			}
			scores[v.Row] += rowScores[o]
			counts[v.Row]++
		}
	}
	if cfg.Aggregate == AggMean {
		for i := range scores {
			if counts[i] > 0 {
				scores[i] /= float64(counts[i])
			}
		}
	}
	return scores, nil
}

// GroupShapley computes Shapley values over *provenance groups*: pipeline
// output rows are partitioned by the exact set of candidate source tuples
// they depend on, each group acts as one player (removing its tuples
// removes all of the group's outputs and no others), and Shapley values of
// the grouped kNN-utility game are computed — exactly for up to 20 groups,
// by Monte-Carlo permutation otherwise. Each source tuple inherits its
// group's value divided by the group's tuple count. This is Datascope's
// fork-pipeline construction, exact where the additive per-output
// aggregation of Datascope is an approximation.
func GroupShapley(ft *pipeline.Featurized, valid *ml.Dataset, table string, tableRows int, k int, mcPermutations int, seed int64) (Scores, error) {
	if tableRows <= 0 {
		return nil, fmt.Errorf("importance: group shapley needs tableRows > 0, got %d", tableRows)
	}
	if k <= 0 {
		k = 1
	}
	// partition output rows by their candidate-tuple set
	type group struct {
		tuples  []int
		outputs []int
	}
	byKey := make(map[string]*group)
	var order []string
	for o, p := range ft.Prov {
		var tuples []int
		for _, v := range p {
			if v.Table == table && v.Row < tableRows {
				tuples = append(tuples, v.Row)
			}
		}
		if len(tuples) == 0 {
			continue // output independent of the candidate table
		}
		key := fmt.Sprint(tuples)
		g, ok := byKey[key]
		if !ok {
			g = &group{tuples: tuples}
			byKey[key] = g
			order = append(order, key)
		}
		g.outputs = append(g.outputs, o)
	}
	groups := make([]*group, len(order))
	for i, key := range order {
		groups[i] = byKey[key]
	}
	if len(groups) == 0 {
		return make(Scores, tableRows), nil
	}

	// the grouped game: a coalition of groups contributes the union of
	// their output rows; utility is the kNN utility on those rows
	base := KNNUtility(k, ft.Data, valid)
	groupUtility := func(subset []int) (float64, error) {
		var rows []int
		for _, gi := range subset {
			rows = append(rows, groups[gi].outputs...)
		}
		return base(rows)
	}

	sp := obs.StartSpan("importance.group_shapley")
	sp.SetStr("table", table).SetInt("groups", int64(len(groups)))
	defer sp.End()

	var groupScores Scores
	var err error
	if len(groups) <= 20 {
		groupScores, err = ExactShapley(len(groups), groupUtility)
	} else {
		perms := mcPermutations
		if perms <= 0 {
			perms = 50
		}
		groupScores, err = MCShapley(len(groups), groupUtility, MCShapleyConfig{Permutations: perms, Seed: seed})
	}
	if err != nil {
		return nil, err
	}
	scores := make(Scores, tableRows)
	for gi, g := range groups {
		share := groupScores[gi] / float64(len(g.tuples))
		for _, row := range g.tuples {
			scores[row] += share
		}
	}
	return scores, nil
}
