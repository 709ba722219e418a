package uncertain

import (
	"fmt"
	"math"
	"sort"
)

// CPClean implements certain predictions for k-nearest-neighbor classifiers
// over incomplete data (Karlaš et al., VLDB 2021). A test point's prediction
// is *certain* when the kNN vote elects the same label in every possible
// world of the symbolic training set. Because each training point's distance
// to the test point varies independently within [minDist, maxDist], the
// adversarial world for a candidate label can be constructed greedily,
// giving an exact polynomial-time check.
type CPClean struct {
	K int // neighbors (default 3)
}

// NewCPClean returns a checker with the given k.
func NewCPClean(k int) *CPClean { return &CPClean{K: k} }

// distRange returns the range of the Euclidean distance between the
// interval box row and the concrete point x.
func distRange(row []Interval, x []float64) Interval {
	lo, hi := 0.0, 0.0
	for j, c := range row {
		d := c.Sub(Point(x[j])).Abs()
		lo += float64(d.Lo * d.Lo)
		hi += float64(d.Hi * d.Hi)
	}
	return Interval{math.Sqrt(lo), math.Sqrt(hi)}
}

// voteOutcome simulates the kNN vote when every training point sits at the
// supplied distance; ties in distance break by training index, ties in the
// vote break toward the smaller label (matching ml.KNN).
func (c *CPClean) voteOutcome(dists []float64, labels []int) int {
	type di struct {
		d float64
		i int
	}
	order := make([]di, len(dists))
	for i, d := range dists {
		order[i] = di{d, i}
	}
	sort.SliceStable(order, func(a, b int) bool {
		if order[a].d != order[b].d {
			return order[a].d < order[b].d
		}
		return order[a].i < order[b].i
	})
	k := c.K
	if k > len(order) {
		k = len(order)
	}
	votes := make(map[int]int)
	for _, o := range order[:k] {
		votes[labels[o.i]]++
	}
	best, bestV := 0, -1
	var keys []int
	for y := range votes {
		keys = append(keys, y)
	}
	sort.Ints(keys)
	for _, y := range keys {
		if votes[y] > bestV {
			best, bestV = y, votes[y]
		}
	}
	return best
}

// CertainPrediction checks whether the kNN prediction of x is identical in
// every possible world. It returns (label, true) when certain, and the
// center-world prediction with false otherwise.
func (c *CPClean) CertainPrediction(train *SymbolicDataset, x []float64) (int, bool, error) {
	if c.K < 1 {
		return 0, false, fmt.Errorf("uncertain: CPClean requires K >= 1, got %d", c.K)
	}
	if train.Len() == 0 {
		return 0, false, fmt.Errorf("uncertain: CPClean needs a non-empty training set")
	}
	if train.Dim() != len(x) {
		return 0, false, fmt.Errorf("uncertain: dimension mismatch %d vs %d", train.Dim(), len(x))
	}
	n := train.Len()
	ranges := make([]Interval, n)
	for i, row := range train.Cells {
		ranges[i] = distRange(row, x)
	}
	// center-world prediction is the candidate
	center := make([]float64, n)
	for i, rg := range ranges {
		center[i] = rg.Center()
	}
	candidate := c.voteOutcome(center, train.Y)

	// adversarial world against the candidate: points voting for the
	// candidate as far as possible, every other point as near as possible.
	// Distances vary independently per point, so this is the single worst
	// case; if the candidate still wins here, it wins in every world.
	adversarial := make([]float64, n)
	for i, rg := range ranges {
		if train.Y[i] == candidate {
			adversarial[i] = rg.Hi
		} else {
			adversarial[i] = rg.Lo
		}
	}
	if c.voteOutcome(adversarial, train.Y) != candidate {
		return candidate, false, nil
	}
	// the candidate must also win its own *best* case... which it does by
	// winning the worst case; but a different label might win the center
	// world under tie-breaking subtleties, so also verify the friendly
	// extreme for symmetry.
	friendly := make([]float64, n)
	for i, rg := range ranges {
		if train.Y[i] == candidate {
			friendly[i] = rg.Lo
		} else {
			friendly[i] = rg.Hi
		}
	}
	if c.voteOutcome(friendly, train.Y) != candidate {
		return candidate, false, nil
	}
	return candidate, true, nil
}

// CertainFraction returns the fraction of test points with certain
// predictions and the per-point certainty flags.
func (c *CPClean) CertainFraction(train *SymbolicDataset, testX [][]float64) (float64, []bool, error) {
	flags := make([]bool, len(testX))
	certain := 0
	for i, x := range testX {
		_, ok, err := c.CertainPrediction(train, x)
		if err != nil {
			return 0, nil, err
		}
		flags[i] = ok
		if ok {
			certain++
		}
	}
	if len(testX) == 0 {
		return 0, flags, nil
	}
	return float64(certain) / float64(len(testX)), flags, nil
}

// GreedyClean repeatedly repairs the uncertain training row whose cleaning
// (collapsing its cells to their centers — standing in for consulting the
// ground truth) certifies the most additional test points, stopping after
// budget repairs or when every prediction is certain. It returns the chosen
// rows in repair order and the certain fraction after each repair — the
// "how many repairs until my predictions are reliable?" loop of CPClean.
func (c *CPClean) GreedyClean(train *SymbolicDataset, testX [][]float64, budget int) ([]int, []float64, error) {
	var repaired []int
	var fractions []float64
	work := &SymbolicDataset{Cells: make([][]Interval, train.Len()), Y: train.Y}
	for i, row := range train.Cells {
		work.Cells[i] = append([]Interval(nil), row...)
	}
	uncertainRows := func() []int {
		var rows []int
		for i, row := range work.Cells {
			for _, cell := range row {
				if !cell.IsPoint() {
					rows = append(rows, i)
					break
				}
			}
		}
		return rows
	}
	for step := 0; step < budget; step++ {
		frac, _, err := c.CertainFraction(work, testX)
		if err != nil {
			return nil, nil, err
		}
		if frac == 1 {
			break
		}
		rows := uncertainRows()
		if len(rows) == 0 {
			break
		}
		bestRow, bestFrac := -1, -1.0
		for _, row := range rows {
			saved := append([]Interval(nil), work.Cells[row]...)
			for j := range work.Cells[row] {
				work.Cells[row][j] = Point(work.Cells[row][j].Center())
			}
			f, _, err := c.CertainFraction(work, testX)
			if err != nil {
				return nil, nil, err
			}
			if f > bestFrac {
				bestRow, bestFrac = row, f
			}
			work.Cells[row] = saved
		}
		for j := range work.Cells[bestRow] {
			work.Cells[bestRow][j] = Point(work.Cells[bestRow][j].Center())
		}
		repaired = append(repaired, bestRow)
		fractions = append(fractions, bestFrac)
		if bestFrac == 1 {
			break
		}
	}
	return repaired, fractions, nil
}
