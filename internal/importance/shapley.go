package importance

import (
	"fmt"
	"math/rand"

	"nde/internal/obs"
)

// MCShapleyConfig controls the Monte-Carlo permutation estimator of the
// Data Shapley value (Ghorbani & Zou, ICML 2019).
type MCShapleyConfig struct {
	// Permutations is the number of sampled permutations (default 100).
	Permutations int
	// Seed makes the estimate reproducible.
	Seed int64
	// Truncation enables TMC-Shapley: once the running utility is within
	// Truncation of the full-data utility, the rest of the permutation is
	// assigned zero marginal contribution. Zero disables truncation.
	Truncation float64
}

// MCShapley estimates Shapley values by averaging marginal contributions
// over random permutations: for each permutation, examples are added one by
// one and each example is credited with the utility gain it causes.
// The cost is O(Permutations · n) utility evaluations, less with
// truncation.
func MCShapley(n int, u Utility, cfg MCShapleyConfig) (Scores, error) {
	if n <= 0 {
		return nil, fmt.Errorf("importance: need at least one example, got %d", n)
	}
	perms := cfg.Permutations
	if perms <= 0 {
		perms = 100
	}
	sp := obs.StartSpan("importance.mcshapley")
	sp.SetInt("n", int64(n)).SetInt("permutations", int64(perms))
	defer sp.End()
	prog := obs.NewProgress("mcshapley_permutations", perms)
	defer prog.Done()
	r := rand.New(rand.NewSource(cfg.Seed))

	uEmpty, err := u(nil)
	if err != nil {
		return nil, err
	}
	full := make([]int, n)
	for i := range full {
		full[i] = i
	}
	uFull, err := u(full)
	if err != nil {
		return nil, err
	}

	evals, truncations := int64(2), int64(0)
	scores := make(Scores, n)
	subset := make([]int, 0, n)
	for p := 0; p < perms; p++ {
		perm := r.Perm(n)
		subset = subset[:0]
		prev := uEmpty
		truncated := false
		for _, i := range perm {
			if truncated {
				continue // zero marginal contribution
			}
			subset = append(subset, i)
			cur, err := u(subset)
			if err != nil {
				return nil, err
			}
			evals++
			scores[i] += cur - prev
			prev = cur
			if cfg.Truncation > 0 && abs(uFull-cur) < cfg.Truncation {
				truncated = true
				truncations++
			}
		}
		prog.Tick(1)
	}
	for i := range scores {
		scores[i] /= float64(perms)
	}
	obs.Count("importance_mc_utility_evals_total", evals)
	obs.Count("importance_mc_truncations_total", truncations)
	sp.SetInt("utility_evals", evals).SetInt("truncations", truncations)
	return scores, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ExactShapley computes Shapley values by enumerating all 2^n subsets.
// It is exponential and intended for n <= 20: validating estimators,
// property-testing the axioms, and exact answers on small groups.
func ExactShapley(n int, u Utility) (Scores, error) {
	if n <= 0 || n > 24 {
		return nil, fmt.Errorf("importance: ExactShapley supports 1..24 examples, got %d", n)
	}
	// utilities of every subset, indexed by bitmask
	utils := make([]float64, 1<<n)
	subset := make([]int, 0, n)
	for mask := 0; mask < 1<<n; mask++ {
		subset = subset[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				subset = append(subset, i)
			}
		}
		v, err := u(subset)
		if err != nil {
			return nil, err
		}
		utils[mask] = v
	}
	// factorial weights w(s) = s!(n-s-1)!/n!
	fact := make([]float64, n+1)
	fact[0] = 1
	for i := 1; i <= n; i++ {
		fact[i] = fact[i-1] * float64(i)
	}
	scores := make(Scores, n)
	for i := 0; i < n; i++ {
		for mask := 0; mask < 1<<n; mask++ {
			if mask&(1<<i) != 0 {
				continue
			}
			s := popcount(mask)
			w := fact[s] * fact[n-s-1] / fact[n]
			scores[i] += float64(w * (utils[mask|1<<i] - utils[mask]))
		}
	}
	return scores, nil
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
