package importance

import (
	"fmt"
	"math"
	"math/rand"
)

// SemivalueConfig controls the Monte-Carlo semivalue estimators (Banzhaf
// and Beta Shapley). Semivalues generalize the Shapley value by changing
// the distribution over coalition sizes that marginal contributions are
// averaged under.
type SemivalueConfig struct {
	// SamplesPerPoint is the number of sampled coalitions per training
	// example (default 50).
	SamplesPerPoint int
	// Seed makes the estimate reproducible.
	Seed int64
}

// MCBanzhaf estimates the Banzhaf value (Wang & Jia, AISTATS 2023): the
// expected marginal contribution of example i to a uniformly random subset
// of the other examples (each included with probability 1/2). The uniform-
// subset weighting makes the estimator notably robust to utility noise.
func MCBanzhaf(n int, u Utility, cfg SemivalueConfig) (Scores, error) {
	return mcSemivalue(n, u, cfg, func(r *rand.Rand) float64 { return 0.5 })
}

// MCBetaShapley estimates the Beta(α,β)-Shapley semivalue (Kwon & Zou,
// AISTATS 2022). The coalition size for example i is drawn from a
// Beta-Binomial(n-1, β, α): k | t ~ Binomial(n-1, t) with t ~ Beta(β, α).
// Beta(1,1) recovers the Shapley value; larger β concentrates weight on
// small coalitions, which de-noises scores for stable utilities.
func MCBetaShapley(n int, u Utility, alpha, beta float64, cfg SemivalueConfig) (Scores, error) {
	if alpha <= 0 || beta <= 0 {
		return nil, fmt.Errorf("importance: Beta Shapley needs positive parameters, got α=%v β=%v", alpha, beta)
	}
	return mcSemivalue(n, u, cfg, func(r *rand.Rand) float64 { return betaSample(r, beta, alpha) })
}

// mcSemivalue runs the shared estimator: for each example i and each
// sample, draw an inclusion probability t from tDist, build a subset of the
// other examples by independent coin flips with probability t, and average
// the marginal contribution U(S ∪ i) − U(S).
func mcSemivalue(n int, u Utility, cfg SemivalueConfig, tDist func(*rand.Rand) float64) (Scores, error) {
	if n <= 0 {
		return nil, fmt.Errorf("importance: need at least one example, got %d", n)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return mcSemivalueRows(n, u, cfg, tDist, all)
}

func mcSemivalueRows(n int, u Utility, cfg SemivalueConfig, tDist func(*rand.Rand) float64, rows []int) (Scores, error) {
	if n <= 0 {
		return nil, fmt.Errorf("importance: need at least one example, got %d", n)
	}
	samples := cfg.SamplesPerPoint
	if samples <= 0 {
		samples = 50
	}
	for _, i := range rows {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("importance: row %d out of range [0,%d)", i, n)
		}
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	scores := make(Scores, n)
	subset := make([]int, 0, n)
	for _, i := range rows {
		total := 0.0
		for s := 0; s < samples; s++ {
			t := tDist(r)
			subset = subset[:0]
			for j := 0; j < n; j++ {
				if j != i && r.Float64() < t {
					subset = append(subset, j)
				}
			}
			without, err := u(subset)
			if err != nil {
				return nil, err
			}
			with, err := u(append(subset, i))
			if err != nil {
				return nil, err
			}
			total += with - without
		}
		scores[i] = total / float64(samples)
	}
	return scores, nil
}

// betaSample draws from Beta(a, b) via two gamma variates.
func betaSample(r *rand.Rand, a, b float64) float64 {
	x := gammaSample(r, a)
	y := gammaSample(r, b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// gammaSample draws from Gamma(shape, 1) using Marsaglia–Tsang, with the
// boosting trick for shape < 1.
func gammaSample(r *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// boost: Gamma(a) = Gamma(a+1) * U^(1/a)
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return gammaSample(r, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := r.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}
