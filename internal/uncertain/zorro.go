package uncertain

import (
	"fmt"
	"math"
	"math/rand"

	"nde/internal/ml"
)

// Zorro propagates training-data uncertainty through model training in the
// spirit of Zhu et al. (NeurIPS 2024): a symbolic training set defines a set
// of possible worlds, each world induces a possible model, and the analysis
// reports how much the induced model set disagrees on test predictions.
//
// Two complementary estimates are produced:
//
//   - a Monte-Carlo *under*-approximation obtained by sampling Worlds
//     completions of the uncertain cells and training one logistic model per
//     world (the empirical possible-models set); and
//   - a sound *over*-approximation of each possible model's distance to the
//     center model, derived from the λ-strong convexity of the regularized
//     objective, which yields guaranteed prediction ranges and a worst-case
//     loss bound that hold for EVERY completion, not just the sampled ones.
type Zorro struct {
	// Worlds is the number of sampled completions (default 20).
	Worlds int
	// Seed drives world sampling.
	Seed int64
	// Lambda is the L2 penalty of the logistic models; it is also the
	// strong-convexity constant used by the sound bound (default 0.1 —
	// the bound degrades as 1/λ, so Zorro favors stronger regularization).
	Lambda float64
	// Epochs for each logistic fit (default 200).
	Epochs int
}

// ZorroResult is the output of an Analyze call.
type ZorroResult struct {
	// Center is the model trained on the midpoint (imputed) world.
	Center *ml.LogisticRegression
	// ProbaRanges[i] is the empirical range of P(y=1 | test_i) across the
	// sampled possible models.
	ProbaRanges []Interval
	// SoundProbaRanges[i] is the guaranteed range of P(y=1 | test_i) over
	// ALL completions, from the strong-convexity bound (always contains
	// the empirical range).
	SoundProbaRanges []Interval
	// Certain[i] reports whether every sampled possible model assigns
	// test_i the same label.
	Certain []bool
	// CertainSound[i] reports whether the sound range proves the label of
	// test_i is identical in every world.
	CertainSound []bool
	// WorstCaseLoss is the maximum test log-loss across sampled worlds.
	WorstCaseLoss float64
	// SoundLossBound is the guaranteed upper bound on test log-loss over
	// all completions.
	SoundLossBound float64
	// ParamRadius is the strong-convexity bound on ‖θ_world − θ_center‖.
	ParamRadius float64
}

// Analyze trains the possible models of the symbolic training set and
// evaluates their disagreement on the concrete test set.
func (z *Zorro) Analyze(train *SymbolicDataset, test *ml.Dataset) (*ZorroResult, error) {
	if train.Len() == 0 || test.Len() == 0 {
		return nil, fmt.Errorf("uncertain: zorro needs non-empty train (%d) and test (%d)", train.Len(), test.Len())
	}
	if train.Dim() != test.Dim() {
		return nil, fmt.Errorf("uncertain: dimension mismatch %d vs %d", train.Dim(), test.Dim())
	}
	worlds := z.Worlds
	if worlds <= 0 {
		worlds = 20
	}
	lambda := z.Lambda
	if lambda <= 0 {
		lambda = 0.1
	}
	epochs := z.Epochs
	if epochs <= 0 {
		epochs = 200
	}
	newModel := func() *ml.LogisticRegression {
		return &ml.LogisticRegression{LR: 0.5, Epochs: epochs, L2: lambda}
	}

	center := newModel()
	if err := center.Fit(train.Center()); err != nil {
		return nil, err
	}

	res := &ZorroResult{
		Center:           center,
		ProbaRanges:      make([]Interval, test.Len()),
		SoundProbaRanges: make([]Interval, test.Len()),
		Certain:          make([]bool, test.Len()),
		CertainSound:     make([]bool, test.Len()),
	}

	// --- sampled possible worlds ---
	r := rand.New(rand.NewSource(z.Seed))
	models := []*ml.LogisticRegression{center}
	for w := 1; w < worlds; w++ {
		m := newModel()
		if err := m.Fit(train.SampleWorld(r)); err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	for i := 0; i < test.Len(); i++ {
		lo, hi := 1.0, 0.0
		for _, m := range models {
			p := m.Proba(test.Row(i))[1]
			lo = math.Min(lo, p)
			hi = math.Max(hi, p)
		}
		res.ProbaRanges[i] = Interval{lo, hi}
		res.Certain[i] = lo >= 0.5 || hi < 0.5
	}
	for _, m := range models {
		loss := testLogLoss(m, test)
		res.WorstCaseLoss = math.Max(res.WorstCaseLoss, loss)
	}

	// --- sound over-approximation via strong convexity ---
	// The regularized objective F(θ; D) = (1/n)Σ ℓ + (λ/2)‖θ‖² is λ-strongly
	// convex, so for any world D': ‖θ' − θc‖ ≤ ‖∇F(θc; D')‖ / λ. The
	// gradient at θc under D' differs from 0 (= ∇F(θc; Dc)) only through the
	// perturbed cells; each point's logistic gradient (σ−y)x̃ changes by at
	// most Δσ·‖x̃c‖ + 1·‖Δx‖ with Δσ ≤ ‖θc‖·‖Δx‖/4 (σ is 1/4-Lipschitz in
	// its argument). Averaging the per-point bounds gives a computable
	// uniform gradient-perturbation radius.
	thetaNorm := normAug(center)
	n := train.Len()
	gradPerturb := 0.0
	for _, row := range train.Cells {
		dx := 0.0     // ‖Δx_i‖ bound: full box diameter
		xcNorm := 1.0 // augmented with intercept feature 1
		for _, c := range row {
			dx += float64(c.Width() * c.Width())
			xcNorm += float64(c.Center() * c.Center())
		}
		dx = math.Sqrt(dx)
		if dx == 0 {
			continue
		}
		xcNorm = math.Sqrt(xcNorm)
		dSigma := math.Min(1, thetaNorm*dx/4)
		gradPerturb += (float64(dSigma*(xcNorm+dx)) + dx) / float64(n)
	}
	res.ParamRadius = gradPerturb / lambda

	for i := 0; i < test.Len(); i++ {
		x := test.Row(i)
		xNorm := 1.0
		z := center.Intercept()
		for j, v := range x {
			xNorm += float64(v * v)
			z += float64(center.Weights()[j] * v)
		}
		xNorm = math.Sqrt(xNorm)
		dz := float64(res.ParamRadius * xNorm)
		lo, hi := ml.Sigmoid(z-dz), ml.Sigmoid(z+dz)
		res.SoundProbaRanges[i] = Interval{lo, hi}
		res.CertainSound[i] = lo >= 0.5 || hi < 0.5
		y := float64(test.Y[i])
		// worst-case per-point log loss at the adversarial end of the range;
		// the mean of per-point worst cases dominates every world's mean loss
		worst := math.Max(pointLogLoss(lo, y), pointLogLoss(hi, y))
		res.SoundLossBound += worst / float64(test.Len())
	}
	return res, nil
}

func normAug(m *ml.LogisticRegression) float64 {
	s := m.Intercept() * m.Intercept()
	for _, w := range m.Weights() {
		s += float64(w * w)
	}
	return math.Sqrt(s)
}

func testLogLoss(m *ml.LogisticRegression, test *ml.Dataset) float64 {
	sum := 0.0
	for i := 0; i < test.Len(); i++ {
		p := m.Proba(test.Row(i))[1]
		sum += pointLogLoss(p, float64(test.Y[i]))
	}
	return sum / float64(test.Len())
}

func pointLogLoss(p, y float64) float64 {
	const eps = 1e-12
	p = math.Min(1-eps, math.Max(eps, p))
	if y >= 0.5 {
		return -math.Log(p)
	}
	return -math.Log(1 - p)
}
