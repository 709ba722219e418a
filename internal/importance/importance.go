// Package importance implements the data-importance methods surveyed in the
// tutorial's §2.1 — the tools for *identifying* data errors by quantifying
// how much each training example contributes to downstream model quality:
//
//   - leave-one-out (LOO) scores;
//   - Monte-Carlo permutation Shapley values, with TMC truncation
//     (Ghorbani & Zou, "Data Shapley");
//   - exact Shapley values by subset enumeration (for small n and for
//     validating the estimators);
//   - the efficient closed-form kNN-Shapley (Jia et al.);
//   - Banzhaf values and Beta(α,β)-Shapley semivalues (Wang & Jia;
//     Kwon & Zou);
//   - influence functions for convex models (Koh & Liang);
//   - uncertainty-based label-noise scores (confident-learning and
//     margin-style statistics);
//   - Datascope-style Shapley over provenance-tracked pipelines; and
//   - Gopher-style subgroup explanations for fairness violations.
//
// All scores follow one convention: larger = more valuable; data errors
// surface at the *bottom* of the ranking.
package importance

import (
	"fmt"
	"slices"
	"sort"

	"nde/internal/ml"
)

// Utility evaluates the downstream value U(S) of training on the subset S
// of training-example indices (e.g. validation accuracy after retraining).
// Implementations must be deterministic for reproducible scores.
type Utility func(subset []int) (float64, error)

// AccuracyUtility returns the canonical utility: retrain a fresh model from
// newModel on the given subset of train and measure accuracy on valid. The
// empty subset falls back to predicting class 0 (see ml.EvaluateAccuracy).
func AccuracyUtility(newModel func() ml.Classifier, train, valid *ml.Dataset) Utility {
	return func(subset []int) (float64, error) {
		return ml.EvaluateAccuracy(newModel(), train.Subset(subset), valid)
	}
}

// Scores holds one importance value per training example.
type Scores []float64

// RankAscending returns example indices from least to most valuable —
// the cleaning priority order (most suspicious first): ascending score,
// ties to the smaller index. If any score is NaN, which has no place in
// that order, it is the stable sort by score.
func (s Scores) RankAscending() []int {
	idx := make([]int, len(s))
	for i := range idx {
		idx[i] = i
	}
	if s.hasNaN() {
		sort.SliceStable(idx, func(a, b int) bool { return s[idx[a]] < s[idx[b]] })
		return idx
	}
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case s[a] < s[b]:
			return -1
		case s[a] > s[b]:
			return 1
		}
		return a - b
	})
	return idx
}

// BottomK returns the k indices with the lowest scores (k clamped to
// [0, len]), in RankAscending order: ascending score, ties to the smaller
// index. It selects them without sorting every score; if any score is
// NaN, which has no place in that order, it falls back to
// RankAscending()[:k].
func (s Scores) BottomK(k int) []int {
	k = clampK(k, len(s))
	if s.hasNaN() {
		return s.RankAscending()[:k]
	}
	return firstK(len(s), k, func(a, b int) bool {
		return s[a] < s[b] || (s[a] == s[b] && a < b)
	})
}

func clampK(k, n int) int {
	if k < 0 {
		return 0
	}
	if k > n {
		return n
	}
	return k
}

func (s Scores) hasNaN() bool {
	for _, v := range s {
		if v != v {
			return true
		}
	}
	return false
}

// firstK returns the k indices of [0, n) that come first under before, a
// strict total order on indices, sorted by it. A bounded max-heap holds
// the k first seen so far: one comparison per index against its root,
// n log k comparisons at worst, then an in-place heapsort of the k
// survivors.
func firstK(n, k int, before func(a, b int) bool) []int {
	h := make([]int, 0, k)
	// down restores the max-heap property of h[:m] below node i.
	down := func(i, m int) {
		for {
			c := 2*i + 1
			if c >= m {
				return
			}
			if c+1 < m && before(h[c], h[c+1]) {
				c++
			}
			if !before(h[i], h[c]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := 0; i < n; i++ {
		if len(h) < k {
			h = append(h, i)
			for c := len(h) - 1; c > 0 && before(h[(c-1)/2], h[c]); c = (c - 1) / 2 {
				h[c], h[(c-1)/2] = h[(c-1)/2], h[c]
			}
		} else if k > 0 && before(i, h[0]) {
			h[0] = i
			down(0, k)
		}
	}
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		down(0, end)
	}
	return h
}

// PrecisionAtK measures detection quality: the fraction of the bottom-k
// ranked examples that are truly corrupted.
func (s Scores) PrecisionAtK(corrupted map[int]bool, k int) float64 {
	if k <= 0 {
		return 0
	}
	hits := 0
	bottom := s.BottomK(k)
	for _, i := range bottom {
		if corrupted[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(bottom))
}

// RecallAtK measures the fraction of all corrupted examples found within
// the bottom-k ranked examples.
func (s Scores) RecallAtK(corrupted map[int]bool, k int) float64 {
	if len(corrupted) == 0 {
		return 0
	}
	hits := 0
	for _, i := range s.BottomK(k) {
		if corrupted[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(corrupted))
}

// LeaveOneOut computes the LOO importance of every example:
// φ_i = U(D) − U(D \ {i}). It needs n+1 utility evaluations.
func LeaveOneOut(n int, u Utility) (Scores, error) {
	if n <= 0 {
		return nil, fmt.Errorf("importance: need at least one example, got %d", n)
	}
	full := make([]int, n)
	for i := range full {
		full[i] = i
	}
	uFull, err := u(full)
	if err != nil {
		return nil, err
	}
	scores := make(Scores, n)
	rest := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		rest = rest[:0]
		for j := 0; j < n; j++ {
			if j != i {
				rest = append(rest, j)
			}
		}
		uRest, err := u(rest)
		if err != nil {
			return nil, err
		}
		scores[i] = uFull - uRest
	}
	return scores, nil
}
