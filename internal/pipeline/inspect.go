package pipeline

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"nde/internal/frame"
)

// Inspection observes the output of every pipeline node during Run.
// Inspections implement the mlinspect idea of instrumenting a pipeline
// without changing its code: distribution histograms, row counts and null
// statistics are collected as the data flows by.
type Inspection interface {
	// Observe is called once per executed node with its result.
	Observe(n *Node, res *Result)
}

// RowCountInspection records the output row count of every node.
type RowCountInspection struct {
	Counts map[int]int // node id -> rows
}

// NewRowCountInspection returns an empty row-count inspection.
func NewRowCountInspection() *RowCountInspection {
	return &RowCountInspection{Counts: make(map[int]int)}
}

// Observe records the node's output row count.
func (i *RowCountInspection) Observe(n *Node, res *Result) {
	i.Counts[n.id] = res.Frame.NumRows()
}

// GroupDistributionInspection tracks the relative frequency of the values
// of one column (typically a protected attribute) after every operator —
// the "data distribution debugging" of Grafberger et al. A large change in
// the distribution across an operator indicates that the operator
// disproportionately drops one group.
type GroupDistributionInspection struct {
	Column string
	Dists  map[int]map[string]float64 // node id -> value -> fraction
}

// NewGroupDistributionInspection tracks the distribution of column col.
func NewGroupDistributionInspection(col string) *GroupDistributionInspection {
	return &GroupDistributionInspection{Column: col, Dists: make(map[int]map[string]float64)}
}

// Observe snapshots the column's value distribution if present.
func (i *GroupDistributionInspection) Observe(n *Node, res *Result) {
	col, err := res.Frame.Column(i.Column)
	if err != nil {
		return // column not in scope at this operator
	}
	dist := make(map[string]float64)
	total := 0
	for r := 0; r < col.Len(); r++ {
		if col.IsNull(r) {
			continue
		}
		dist[col.Value(r).String()]++
		total++
	}
	for k := range dist {
		dist[k] /= float64(max(1, total))
	}
	i.Dists[n.id] = dist
}

// MaxShift returns the largest total-variation distance between the
// column's distribution at any operator and at any of its direct inputs,
// together with the node where it happens. It answers "which operator
// skewed the groups the most?".
func (i *GroupDistributionInspection) MaxShift(p *Pipeline, out *Node) (float64, *Node) {
	var worst float64
	var worstNode *Node
	seen := make(map[int]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if seen[n.id] {
			return
		}
		seen[n.id] = true
		for _, in := range n.inputs {
			walk(in)
			a, okA := i.Dists[in.id]
			b, okB := i.Dists[n.id]
			if !okA || !okB {
				continue
			}
			if tv := totalVariation(a, b); tv > worst {
				worst, worstNode = tv, n
			}
		}
	}
	walk(out)
	return worst, worstNode
}

func totalVariation(a, b map[string]float64) float64 {
	seen := make(map[string]bool, len(a)+len(b))
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for k := range b {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	// Sum in sorted key order: float rounding is order-sensitive, and map
	// iteration order would make the distance vary run to run.
	sort.Strings(keys)
	sum := 0.0
	for _, k := range keys {
		sum += math.Abs(a[k] - b[k])
	}
	return sum / 2
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ScreeningIssue is one finding of a pipeline screening check, in the
// spirit of ArgusEyes' continuous-integration screening.
type ScreeningIssue struct {
	Check    string
	Severity string // "warning" or "error"
	Detail   string
}

func (s ScreeningIssue) String() string {
	return fmt.Sprintf("[%s] %s: %s", s.Severity, s.Check, s.Detail)
}

// ScreenLeakage detects train/test leakage: rows of the test frame whose
// values on the key columns also appear in the training frame. Any overlap
// is reported as an error, since leaked test rows inflate evaluation
// metrics.
func ScreenLeakage(train, test *frame.Frame, keyCols []string) ([]ScreeningIssue, error) {
	keyOf := func(f *frame.Frame, row int) (string, error) {
		var parts []string
		for _, c := range keyCols {
			v, err := f.Value(row, c)
			if err != nil {
				return "", err
			}
			parts = append(parts, v.String())
		}
		return strings.Join(parts, "\x1f"), nil
	}
	seen := make(map[string]bool, train.NumRows())
	for r := 0; r < train.NumRows(); r++ {
		k, err := keyOf(train, r)
		if err != nil {
			return nil, err
		}
		seen[k] = true
	}
	overlap := 0
	for r := 0; r < test.NumRows(); r++ {
		k, err := keyOf(test, r)
		if err != nil {
			return nil, err
		}
		if seen[k] {
			overlap++
		}
	}
	if overlap == 0 {
		return nil, nil
	}
	return []ScreeningIssue{{
		Check:    "data-leakage",
		Severity: "error",
		Detail:   fmt.Sprintf("%d of %d test rows share keys %v with training rows", overlap, test.NumRows(), keyCols),
	}}, nil
}

// ScreenLabelShift compares the label distribution of two frames and warns
// when the total-variation distance exceeds threshold (e.g. a filter that
// dropped mostly positive examples).
func ScreenLabelShift(before, after *frame.Frame, labelCol string, threshold float64) ([]ScreeningIssue, error) {
	distOf := func(f *frame.Frame) (map[string]float64, error) {
		col, err := f.Column(labelCol)
		if err != nil {
			return nil, err
		}
		d := make(map[string]float64)
		n := 0
		for r := 0; r < col.Len(); r++ {
			if col.IsNull(r) {
				continue
			}
			d[col.Value(r).String()]++
			n++
		}
		for k := range d {
			d[k] /= float64(max(1, n))
		}
		return d, nil
	}
	a, err := distOf(before)
	if err != nil {
		return nil, err
	}
	b, err := distOf(after)
	if err != nil {
		return nil, err
	}
	if tv := totalVariation(a, b); tv > threshold {
		return []ScreeningIssue{{
			Check:    "label-shift",
			Severity: "warning",
			Detail:   fmt.Sprintf("label distribution of %q shifted by TV=%.3f (threshold %.3f)", labelCol, tv, threshold),
		}}, nil
	}
	return nil, nil
}

// ScreenGroupCoverage warns about protected-attribute groups whose support
// in the frame falls below minCount — groups too small for the model to
// learn or for fairness metrics to be reliable.
func ScreenGroupCoverage(f *frame.Frame, groupCol string, minCount int) ([]ScreeningIssue, error) {
	col, err := f.Column(groupCol)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int)
	for r := 0; r < col.Len(); r++ {
		if col.IsNull(r) {
			continue
		}
		counts[col.Value(r).String()]++
	}
	var small []string
	for g, c := range counts {
		if c < minCount {
			small = append(small, fmt.Sprintf("%s(%d)", g, c))
		}
	}
	if len(small) == 0 {
		return nil, nil
	}
	sort.Strings(small)
	return []ScreeningIssue{{
		Check:    "group-coverage",
		Severity: "warning",
		Detail:   fmt.Sprintf("groups of %q below min support %d: %s", groupCol, minCount, strings.Join(small, ", ")),
	}}, nil
}
