package ml

import (
	"fmt"
	"math"
	"sort"
)

// DecisionTree is a CART-style classification tree with Gini impurity,
// axis-aligned thresholds, and deterministic tie-breaking (lowest feature,
// lowest threshold). It is the model used by the programmable-bias and
// fairness demos where an interpretable classifier is needed.
type DecisionTree struct {
	MaxDepth        int // default 5
	MinSamplesSplit int // default 2

	root    *treeNode
	classes int
}

type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	label     int
	leaf      bool
}

// Fit grows the tree greedily.
func (m *DecisionTree) Fit(d *Dataset) error {
	if d.Len() == 0 {
		return fmt.Errorf("ml: decision tree cannot fit an empty dataset")
	}
	maxDepth := m.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 5
	}
	minSplit := m.MinSamplesSplit
	if minSplit < 2 {
		minSplit = 2
	}
	m.classes = d.NumClasses()
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	m.root = m.grow(d, idx, maxDepth, minSplit)
	return nil
}

func majorityLabel(d *Dataset, idx []int, classes int) int {
	counts := make([]int, classes)
	for _, i := range idx {
		counts[d.Y[i]]++
	}
	best, bestC := 0, -1
	for c, n := range counts {
		if n > bestC {
			best, bestC = c, n
		}
	}
	return best
}

func gini(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		g -= float64(p * p)
	}
	return g
}

func (m *DecisionTree) grow(d *Dataset, idx []int, depth, minSplit int) *treeNode {
	label := majorityLabel(d, idx, m.classes)
	pure := true
	for _, i := range idx {
		if d.Y[i] != d.Y[idx[0]] {
			pure = false
			break
		}
	}
	if pure || depth == 0 || len(idx) < minSplit {
		return &treeNode{leaf: true, label: label}
	}

	bestFeature, bestThresh, bestScore := -1, 0.0, math.Inf(1)
	sorted := make([]int, len(idx))
	for f := 0; f < d.Dim(); f++ {
		copy(sorted, idx)
		sort.SliceStable(sorted, func(a, b int) bool { return d.X.At(sorted[a], f) < d.X.At(sorted[b], f) })
		leftCounts := make([]int, m.classes)
		rightCounts := make([]int, m.classes)
		for _, i := range sorted {
			rightCounts[d.Y[i]]++
		}
		for cut := 1; cut < len(sorted); cut++ {
			moved := sorted[cut-1]
			leftCounts[d.Y[moved]]++
			rightCounts[d.Y[moved]]--
			lv, rv := d.X.At(sorted[cut-1], f), d.X.At(sorted[cut], f)
			if lv == rv {
				continue // cannot split between equal values
			}
			nl, nr := cut, len(sorted)-cut
			score := (float64(float64(nl)*gini(leftCounts, nl)) + float64(float64(nr)*gini(rightCounts, nr))) / float64(len(sorted))
			if score < bestScore-1e-12 {
				bestScore = score
				bestFeature = f
				bestThresh = (lv + rv) / 2
			}
		}
	}
	if bestFeature < 0 {
		return &treeNode{leaf: true, label: label}
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if d.X.At(i, bestFeature) <= bestThresh {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return &treeNode{leaf: true, label: label}
	}
	return &treeNode{
		feature:   bestFeature,
		threshold: bestThresh,
		left:      m.grow(d, leftIdx, depth-1, minSplit),
		right:     m.grow(d, rightIdx, depth-1, minSplit),
	}
}

// Predict descends the tree to a leaf.
func (m *DecisionTree) Predict(x []float64) int {
	if m.root == nil {
		panic("ml: Predict before Fit")
	}
	n := m.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label
}
