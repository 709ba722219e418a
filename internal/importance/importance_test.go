package importance

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"nde/internal/linalg"
	"nde/internal/ml"
)

// blobs builds a two-cluster binary dataset.
func blobs(n int, sep float64, seed int64) *ml.Dataset {
	r := rand.New(rand.NewSource(seed))
	x := linalg.NewMatrix(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		y[i] = c
		sign := float64(2*c - 1)
		x.Set(i, 0, sign*sep+r.NormFloat64())
		x.Set(i, 1, sign*sep+r.NormFloat64())
	}
	d, _ := ml.NewDataset(x, y)
	return d
}

// flipLabels flips the labels of a deterministic random fraction and
// returns the corrupted copy and the flipped index set.
func flipLabels(d *ml.Dataset, frac float64, seed int64) (*ml.Dataset, map[int]bool) {
	r := rand.New(rand.NewSource(seed))
	out := d.Clone()
	flipped := make(map[int]bool)
	k := int(float64(d.Len()) * frac)
	for _, i := range r.Perm(d.Len())[:k] {
		out.Y[i] = 1 - out.Y[i]
		flipped[i] = true
	}
	return out, flipped
}

// additiveUtility is a cheap synthetic utility U(S) = Σ_{i∈S} w_i used for
// validating estimators: its exact Shapley and Banzhaf values are w_i.
func additiveUtility(w []float64) Utility {
	return func(subset []int) (float64, error) {
		s := 0.0
		for _, i := range subset {
			s += w[i]
		}
		return s, nil
	}
}

func TestScoresRanking(t *testing.T) {
	s := Scores{3, -1, 2, 0}
	rank := s.RankAscending()
	if rank[0] != 1 || rank[3] != 0 {
		t.Errorf("rank = %v", rank)
	}
	if got := s.BottomK(2); got[0] != 1 || got[1] != 3 {
		t.Errorf("BottomK = %v", got)
	}
	if got := s.BottomK(99); len(got) != 4 {
		t.Error("BottomK should clamp")
	}
	if s.Sum() != 4 {
		t.Errorf("Sum = %v", s.Sum())
	}
}

// RankAscending equals the stable sort by score it replaced: on scores
// drawn from a small pool with ties and ±0, and with NaN, where it is
// that sort.
func TestRankAscendingMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	pool := []float64{-1, math.Copysign(0, -1), 0, 0.5, 1, math.Inf(1), math.NaN()}
	for c := 0; c < 300; c++ {
		s := make(Scores, r.Intn(60))
		nanOK := c%2 == 0
		for i := range s {
			s[i] = pool[r.Intn(len(pool))]
			for !nanOK && math.IsNaN(s[i]) {
				s[i] = pool[r.Intn(len(pool))]
			}
		}
		want := make([]int, len(s))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return s[want[a]] < s[want[b]] })
		if got := s.RankAscending(); !slices.Equal(got, want) {
			t.Fatalf("%v.RankAscending() = %v, want %v", s, got, want)
		}
	}
}

// BottomK selects without sorting every score, and must equal the
// RankAscending prefix wherever the stable sort defines one: ties, ±0,
// NaN (the fallback path), and k outside [0, len].
func TestBottomKTopKMatchRankAscending(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.NaN()
	cases := []Scores{
		{},
		{3, -1, 2, 0, 7, -4},
		{1, 0, 1, 0, 1, 0, 2},
		{0, negZero, 0, -1, negZero, 1},
		{2, nan, -1, 0, nan, 1},
	}
	r := rand.New(rand.NewSource(77))
	pool := []float64{-1, negZero, 0, 0.5, 1}
	for c := 0; c < 50; c++ {
		s := make(Scores, r.Intn(40))
		for i := range s {
			s[i] = pool[r.Intn(len(pool))]
		}
		cases = append(cases, s)
	}
	for _, s := range cases {
		n := len(s)
		rank := s.RankAscending()
		for _, k := range []int{-1, 0, 1, n / 2, n, n + 1} {
			kk := k
			if kk < 0 {
				kk = 0
			}
			if kk > n {
				kk = n
			}
			if got := s.BottomK(k); !slices.Equal(got, rank[:kk]) {
				t.Errorf("%v.BottomK(%d) = %v, want %v", s, k, got, rank[:kk])
			}
		}
	}
	if got := (Scores{1, 2}).PrecisionAtK(map[int]bool{0: true}, -1); got != 0 {
		t.Errorf("PrecisionAtK(-1) = %v, want 0", got)
	}
}

func TestPrecisionRecallAtK(t *testing.T) {
	s := Scores{-5, 10, -3, 8}
	corrupted := map[int]bool{0: true, 2: true}
	if got := s.PrecisionAtK(corrupted, 2); got != 1 {
		t.Errorf("P@2 = %v", got)
	}
	if got := s.RecallAtK(corrupted, 2); got != 1 {
		t.Errorf("R@2 = %v", got)
	}
	if got := s.PrecisionAtK(corrupted, 4); got != 0.5 {
		t.Errorf("P@4 = %v", got)
	}
	if s.PrecisionAtK(corrupted, 0) != 0 || s.RecallAtK(nil, 2) != 0 {
		t.Error("degenerate cases should be 0")
	}
}

func TestLeaveOneOutAdditive(t *testing.T) {
	w := []float64{1, -2, 3}
	scores, err := LeaveOneOut(3, additiveUtility(w))
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if math.Abs(scores[i]-w[i]) > 1e-12 {
			t.Errorf("LOO[%d] = %v, want %v", i, scores[i], w[i])
		}
	}
	if _, err := LeaveOneOut(0, additiveUtility(nil)); err == nil {
		t.Error("expected error for n=0")
	}
}

func TestExactShapleyAdditive(t *testing.T) {
	w := []float64{0.5, -1, 2, 0}
	scores, err := ExactShapley(4, additiveUtility(w))
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if math.Abs(scores[i]-w[i]) > 1e-12 {
			t.Errorf("φ[%d] = %v, want %v", i, scores[i], w[i])
		}
	}
}

func TestExactShapleyMajorityGame(t *testing.T) {
	// 3-player majority game: U = 1 iff |S| >= 2. By symmetry φ_i = 1/3.
	u := func(subset []int) (float64, error) {
		if len(subset) >= 2 {
			return 1, nil
		}
		return 0, nil
	}
	scores, err := ExactShapley(3, u)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scores {
		if math.Abs(s-1.0/3) > 1e-12 {
			t.Errorf("φ[%d] = %v, want 1/3", i, s)
		}
	}
	// Banzhaf of the majority game: each player is pivotal in 2 of 4 subsets.
	bz, err := ExactBanzhaf(3, u)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range bz {
		if math.Abs(s-0.5) > 1e-12 {
			t.Errorf("banzhaf[%d] = %v, want 0.5", i, s)
		}
	}
}

func TestExactShapleyBounds(t *testing.T) {
	if _, err := ExactShapley(0, additiveUtility(nil)); err == nil {
		t.Error("expected error for n=0")
	}
	if _, err := ExactShapley(25, additiveUtility(make([]float64, 25))); err == nil {
		t.Error("expected error for n>24")
	}
}

// Property: Shapley axioms hold for exact enumeration over random utilities
// on small n — efficiency (Σφ = U(D)−U(∅)), symmetry (equal-treatment of
// interchangeable players is approximated by checking duplicated weights in
// additive games), and the null-player axiom.
func TestQuickShapleyAxioms(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		// random subset-utility table defining an arbitrary game with U(∅)=u0
		utils := make([]float64, 1<<n)
		for i := range utils {
			utils[i] = r.NormFloat64()
		}
		u := func(subset []int) (float64, error) {
			mask := 0
			for _, i := range subset {
				mask |= 1 << i
			}
			return utils[mask], nil
		}
		scores, err := ExactShapley(n, u)
		if err != nil {
			return false
		}
		// efficiency
		if math.Abs(scores.Sum()-(utils[1<<n-1]-utils[0])) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickShapleyNullPlayer(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(4)
		nullPlayer := r.Intn(n)
		// additive game where the null player's weight is zero
		w := make([]float64, n)
		for i := range w {
			if i != nullPlayer {
				w[i] = r.NormFloat64()
			}
		}
		scores, err := ExactShapley(n, additiveUtility(w))
		if err != nil {
			return false
		}
		return math.Abs(scores[nullPlayer]) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMCShapleyConvergesToExact(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 6
	utils := make([]float64, 1<<n)
	for i := range utils {
		utils[i] = r.Float64()
	}
	u := func(subset []int) (float64, error) {
		mask := 0
		for _, i := range subset {
			mask |= 1 << i
		}
		return utils[mask], nil
	}
	exact, err := ExactShapley(n, u)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MCShapley(n, u, MCShapleyConfig{Permutations: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if math.Abs(exact[i]-mc[i]) > 0.05 {
			t.Errorf("MC φ[%d] = %v, exact %v", i, mc[i], exact[i])
		}
	}
}

func TestMCShapleyEfficiencyInExpectation(t *testing.T) {
	// every permutation telescopes, so the estimator is exactly efficient
	w := []float64{1, 2, -0.5, 0.25}
	scores, err := MCShapley(4, additiveUtility(w), MCShapleyConfig{Permutations: 17, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scores.Sum()-2.75) > 1e-9 {
		t.Errorf("Σφ = %v, want 2.75", scores.Sum())
	}
}

func TestTMCShapleyTruncationStillAccurateForAdditive(t *testing.T) {
	// with additive utility truncation only fires at the exact full value
	w := []float64{1, 1, 1, 1}
	scores, err := MCShapley(4, additiveUtility(w), MCShapleyConfig{Permutations: 50, Seed: 2, Truncation: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scores {
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("TMC φ[%d] = %v", i, s)
		}
	}
}

func TestTMCTruncationReducesEvaluations(t *testing.T) {
	evals := 0
	// utility saturates after 2 of 10 points: truncation should kick in
	u := func(subset []int) (float64, error) {
		evals++
		if len(subset) >= 2 {
			return 1, nil
		}
		return float64(len(subset)) / 2, nil
	}
	if _, err := MCShapley(10, u, MCShapleyConfig{Permutations: 20, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	full := evals
	evals = 0
	if _, err := MCShapley(10, u, MCShapleyConfig{Permutations: 20, Seed: 1, Truncation: 0.01}); err != nil {
		t.Fatal(err)
	}
	if evals >= full {
		t.Errorf("truncated evals %d >= full evals %d", evals, full)
	}
}

func TestMCBanzhafConvergesToExact(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := 5
	utils := make([]float64, 1<<n)
	for i := range utils {
		utils[i] = r.Float64()
	}
	u := func(subset []int) (float64, error) {
		mask := 0
		for _, i := range subset {
			mask |= 1 << i
		}
		return utils[mask], nil
	}
	exact, err := ExactBanzhaf(n, u)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MCBanzhaf(n, u, SemivalueConfig{SamplesPerPoint: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if math.Abs(exact[i]-mc[i]) > 0.05 {
			t.Errorf("banzhaf[%d] = %v, exact %v", i, mc[i], exact[i])
		}
	}
}

func TestBetaShapleyUniformMatchesShapley(t *testing.T) {
	// Beta(1,1)-Shapley IS the Shapley value
	r := rand.New(rand.NewSource(21))
	n := 5
	utils := make([]float64, 1<<n)
	for i := range utils {
		utils[i] = r.Float64()
	}
	u := func(subset []int) (float64, error) {
		mask := 0
		for _, i := range subset {
			mask |= 1 << i
		}
		return utils[mask], nil
	}
	exact, err := ExactShapley(n, u)
	if err != nil {
		t.Fatal(err)
	}
	beta, err := MCBetaShapley(n, u, 1, 1, SemivalueConfig{SamplesPerPoint: 4000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if math.Abs(exact[i]-beta[i]) > 0.06 {
			t.Errorf("beta(1,1)[%d] = %v, shapley %v", i, beta[i], exact[i])
		}
	}
}

func TestBetaShapleyRejectsBadParams(t *testing.T) {
	if _, err := MCBetaShapley(3, additiveUtility([]float64{1, 1, 1}), 0, 1, SemivalueConfig{}); err == nil {
		t.Error("expected error for alpha=0")
	}
}

func TestAdditiveSemivaluesEqualWeights(t *testing.T) {
	// for additive utilities every semivalue equals the weight vector
	w := []float64{2, -1, 0.5}
	for name, run := range map[string]func() (Scores, error){
		"banzhaf": func() (Scores, error) {
			return MCBanzhaf(3, additiveUtility(w), SemivalueConfig{SamplesPerPoint: 200, Seed: 1})
		},
		"beta(4,1)": func() (Scores, error) {
			return MCBetaShapley(3, additiveUtility(w), 1, 4, SemivalueConfig{SamplesPerPoint: 200, Seed: 1})
		},
	} {
		scores, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range w {
			if math.Abs(scores[i]-w[i]) > 1e-9 {
				t.Errorf("%s[%d] = %v, want %v", name, i, scores[i], w[i])
			}
		}
	}
}

// Sum returns the total of all scores (used to verify the Shapley
// efficiency axiom Σφ = U(D) − U(∅)).
func (s Scores) Sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// ExactBanzhaf computes Banzhaf values by full enumeration: the average
// marginal contribution over all 2^(n-1) subsets not containing i.
func ExactBanzhaf(n int, u Utility) (Scores, error) {
	if n <= 0 || n > 24 {
		return nil, fmt.Errorf("importance: ExactBanzhaf supports 1..24 examples, got %d", n)
	}
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
	scores := make(Scores, n)
	for i := 0; i < n; i++ {
		for mask := 0; mask < 1<<n; mask++ {
			if mask&(1<<i) != 0 {
				continue
			}
			scores[i] += utils[mask|1<<i] - utils[mask]
		}
	}
	inv := 1 / float64(int(1)<<(n-1))
	for i := range scores {
		scores[i] *= inv
	}
	return scores, nil
}
