package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json compare mode reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Compare-mode thresholds (choosing-metrics §8): a gain needs at least
// minPairs alternating pairs and wins in winShare of them.
const (
	minPairs = 10
	winShare = 0.9
)

// runCompare reads two results files — A the parent, B the change, runs
// recorded in alternating order — and reports every (workload, metric)
// of BENCHMARK.json as improved, unchanged, worse or unresolved. It fails
// when any row is worse.
func runCompare(w io.Writer, aPath, bPath string) error {
	spec, err := readSpec()
	if err != nil {
		return err
	}
	a, err := readResults(aPath)
	if err != nil {
		return err
	}
	b, err := readResults(bPath)
	if err != nil {
		return err
	}
	worse := 0
	fmt.Fprintf(w, "%-15s %-18s %12s %12s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "wins", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			c := judge(va, vb, m.Better == "lower", m.Bound)
			if c.verdict == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-15s %-18s %12.4f %12.4f %+7.1f%% %3d/%-2d  %s\n",
				wl.name, m.Name, c.medA, c.medB, 100*c.change, c.wins, c.pairs, c.verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}

// comparison is one (workload, metric) row.
type comparison struct {
	medA, medB float64
	change     float64 // (B-A)/A
	wins       int     // pairs where B reads better than A
	pairs      int
	verdict    string
}

// judge applies the rule: improved when B wins at least nine tenths of
// at least ten pairs and the medians differ by more than A's
// inter-quartile spread; worse when B's median is worse than A's by more
// than the bound; unresolved instead of worse or unchanged when either
// side's own spread exceeds the bound, unless every B run is worse (or
// better) than every A run.
func judge(a, b []float64, lower bool, bound float64) comparison {
	better := func(x, y float64) bool { // x reads better than y
		if lower {
			return x < y
		}
		return x > y
	}
	c := comparison{medA: median(a), medB: median(b), pairs: min(len(a), len(b))}
	c.change = (c.medB - c.medA) / c.medA
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	q1, q3 := quartiles(a)
	iqr := q3 - q1
	worseBy := c.change
	if !lower {
		worseBy = -worseBy
	}
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	qb1, qb3 := quartiles(b)
	noisy := iqr/c.medA > bound || (qb3-qb1)/c.medB > bound
	switch {
	case c.pairs >= minPairs && float64(c.wins) >= winShare*float64(c.pairs) &&
		better(c.medB, c.medA) && math.Abs(c.medB-c.medA) > iqr:
		c.verdict = "improved"
	case worseBy > bound && (!noisy || allWorse):
		c.verdict = "worse"
	case noisy && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	if len(s) < 2 {
		return median(s), median(s)
	}
	sort.Float64s(s)
	q := func(i int) float64 {
		n, m := 4, len(s)+1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3)
}

func metricValues(runs []runRecord, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// readResults groups the untraced runs of a results file by workload,
// in recorded order.
func readResults(path string) (map[string][]runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	out := map[string][]runRecord{}
	for _, r := range f.Runs {
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, nil
}

// readSpec finds BENCHMARK.json in the working directory or above it.
func readSpec() (*benchmarkSpec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var spec benchmarkSpec
			if err := json.Unmarshal(b, &spec); err != nil {
				return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
			}
			return &spec, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no BENCHMARK.json in or above the working directory")
		}
		dir = parent
	}
}
