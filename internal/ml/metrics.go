package ml

import (
	"fmt"
	"math"
	"sort"
)

// Accuracy returns the fraction of positions where pred matches truth.
func Accuracy(truth, pred []int) float64 {
	if len(truth) != len(pred) {
		panic(fmt.Sprintf("ml: Accuracy lengths %d vs %d", len(truth), len(pred)))
	}
	if len(truth) == 0 {
		return 0
	}
	correct := 0
	for i := range truth {
		if truth[i] == pred[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(truth))
}

// ConfusionCounts holds binary confusion-matrix entries for a positive class.
type ConfusionCounts struct {
	TP, FP, TN, FN int
}

// Confusion tallies binary confusion counts treating pos as the positive class.
func Confusion(truth, pred []int, pos int) ConfusionCounts {
	var c ConfusionCounts
	for i := range truth {
		switch {
		case truth[i] == pos && pred[i] == pos:
			c.TP++
		case truth[i] == pos && pred[i] != pos:
			c.FN++
		case truth[i] != pos && pred[i] == pos:
			c.FP++
		default:
			c.TN++
		}
	}
	return c
}

// Precision returns TP/(TP+FP), or 0 when undefined.
func (c ConfusionCounts) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN) (the true-positive rate), or 0 when undefined.
func (c ConfusionCounts) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FPR returns FP/(FP+TN) (the false-positive rate), or 0 when undefined.
func (c ConfusionCounts) FPR() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// F1 returns the binary F1 score for the positive class pos.
func F1(truth, pred []int, pos int) float64 {
	c := Confusion(truth, pred, pos)
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// groupIndices partitions example indices by group value.
func groupIndices(groups []string) map[string][]int {
	out := make(map[string][]int)
	for i, g := range groups {
		out[g] = append(out[g], i)
	}
	return out
}

func take(xs []int, idx []int) []int {
	out := make([]int, len(idx))
	for o, i := range idx {
		out[o] = xs[i]
	}
	return out
}

// EqualizedOddsDifference returns the fairness violation under equalized
// odds: the maximum over {TPR, FPR} of the largest pairwise gap between
// groups, treating pos as the positive class. Zero means perfectly fair.
func EqualizedOddsDifference(truth, pred []int, groups []string, pos int) float64 {
	byGroup := groupIndices(groups)
	var tprs, fprs []float64
	keys := sortedKeys(byGroup)
	for _, g := range keys {
		idx := byGroup[g]
		c := Confusion(take(truth, idx), take(pred, idx), pos)
		tprs = append(tprs, c.Recall())
		fprs = append(fprs, c.FPR())
	}
	return math.Max(maxGap(tprs), maxGap(fprs))
}

// PredictiveParityDifference returns the largest pairwise gap in precision
// (positive predictive value) between groups. Zero means parity.
func PredictiveParityDifference(truth, pred []int, groups []string, pos int) float64 {
	byGroup := groupIndices(groups)
	var precs []float64
	for _, g := range sortedKeys(byGroup) {
		idx := byGroup[g]
		c := Confusion(take(truth, idx), take(pred, idx), pos)
		precs = append(precs, c.Precision())
	}
	return maxGap(precs)
}

// PredictionEntropy is the Shannon entropy (nats) of the empirical label
// distribution of pred — the stability metric shown in the tutorial's
// Figure 1 quality panel.
func PredictionEntropy(pred []int) float64 {
	if len(pred) == 0 {
		return 0
	}
	counts := make(map[int]int)
	for _, y := range pred {
		counts[y]++
	}
	// Sum in sorted label order: float rounding is order-sensitive, and
	// map iteration order would make the entropy vary run to run.
	labels := make([]int, 0, len(counts))
	for y := range counts {
		labels = append(labels, y)
	}
	sort.Ints(labels)
	h := 0.0
	for _, y := range labels {
		p := float64(counts[y]) / float64(len(pred))
		h -= float64(p * math.Log(p))
	}
	return h
}

func sortedKeys(m map[string][]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func maxGap(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo
}

// QualityReport bundles the Figure-1 quality panel: correctness, fairness
// and stability metrics of one model evaluation.
type QualityReport struct {
	Accuracy         float64
	F1               float64
	EqualizedOdds    float64
	PredictiveParity float64
	Entropy          float64
}

// Report computes the full quality panel for predictions on a dataset.
// Fairness entries are zero when the dataset carries no groups.
func Report(d *Dataset, pred []int, pos int) QualityReport {
	r := QualityReport{
		Accuracy: Accuracy(d.Y, pred),
		F1:       F1(d.Y, pred, pos),
		Entropy:  PredictionEntropy(pred),
	}
	if len(d.Groups) == len(d.Y) && len(d.Groups) > 0 {
		r.EqualizedOdds = EqualizedOddsDifference(d.Y, pred, d.Groups, pos)
		r.PredictiveParity = PredictiveParityDifference(d.Y, pred, d.Groups, pos)
	}
	return r
}
