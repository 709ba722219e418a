// Command nde-figures regenerates every figure and table of the tutorial
// (DESIGN.md §3, experiments E1–E18) as human-readable text.
//
// Usage:
//
//	nde-figures [-n 300] [-seed 42] [-only E3] [-replicates 5]
//	            [telemetry flags]
//
// The shared telemetry flags (-metrics, -trace, -ledger, -slowspan, -ops,
// -ops-pprof, -ops-wait; see internal/obs/ops) enable observability for
// the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nde/internal/exp"
	"nde/internal/obs"
	"nde/internal/obs/ops"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nde-figures:", err)
		os.Exit(1)
	}
}

// run is the whole program behind flag parsing; it returns errors instead
// of exiting so the smoke tests can drive it in-process.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nde-figures", flag.ContinueOnError)
	n := fs.Int("n", 300, "scenario size (number of recommendation letters)")
	seed := fs.Int64("seed", 42, "random seed")
	only := fs.String("only", "", "run a single experiment id (e.g. E3); empty = all")
	replicates := fs.Int("replicates", 1, "run each experiment with this many consecutive seeds (concurrently when >1)")
	tf := ops.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, err := tf.Start("nde-figures", os.Stderr)
	if err != nil {
		return err
	}
	err = runExperiments(*n, *seed, *replicates, *only, out)
	if cerr := sess.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func runExperiments(nArg int, seedArg int64, replicates int, only string, out io.Writer) error {
	n := &nArg
	type experiment struct {
		id  string
		run func(seed int64) (*exp.Table, string, error)
	}
	experiments := []experiment{
		{"E1", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E1Figure2(*n, seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, "", nil
		}},
		{"E2", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E2Figure3(*n, seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, "pipeline query plan:\n" + r.Plan, nil
		}},
		{"E3", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E3Figure4(*n, seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, sparkline(r.Losses), nil
		}},
		{"E4", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E4Figure1(*n, seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, "", nil
		}},
		{"E5", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E5MethodComparison(*n, seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, "", nil
		}},
		{"E6", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E6Scalability(seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, "", nil
		}},
		{"E7", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E7CleaningStrategies(*n, seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, "", nil
		}},
		{"E8", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E8CertainPredictions(*n, seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, "", nil
		}},
		{"E9", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E9Challenge(*n, seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, "full leaderboard:\n" + r.Leaderboard.String(), nil
		}},
		{"E10", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E10PipelineScreening(*n, seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, "", nil
		}},
		{"E11", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E11ZorroVsImputation(*n, seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, "", nil
		}},
		{"E12", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E12GopherFairness(*n, seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, "", nil
		}},
		{"E13", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E13Unlearning(*n, seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, "", nil
		}},
		{"E14", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E14Amortization(*n, seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, "", nil
		}},
		{"E15", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E15RAGImportance(seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, "", nil
		}},
		{"E16", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E16WhatIfOptimization(*n, seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, "", nil
		}},
		{"E17", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E17DatascopeAblation(*n, seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, "", nil
		}},
		{"E18", func(seed int64) (*exp.Table, string, error) {
			r, err := exp.E18DetectionBenchmark(*n, seed)
			if err != nil {
				return nil, "", err
			}
			return r.Table, "", nil
		}},
	}

	if replicates < 1 {
		return fmt.Errorf("replicates must be >= 1, got %d", replicates)
	}
	ran := 0
	for _, e := range experiments {
		if only != "" && !strings.EqualFold(only, e.id) {
			continue
		}
		sp := obs.StartSpan("figures.experiment")
		sp.SetStr("id", e.id)
		reps, err := exp.Replicates(e.id, exp.SeedSequence(seedArg, replicates), 0, e.run)
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		obs.Inc("figures_experiments_total")
		for _, rep := range reps {
			if replicates > 1 {
				fmt.Fprintf(out, "── %s, seed %d ──\n", e.id, rep.Seed)
			}
			fmt.Fprintln(out, rep.Table)
			if rep.Extra != "" {
				fmt.Fprintln(out, rep.Extra)
			}
			fmt.Fprintln(out)
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", only)
	}
	return nil
}

// sparkline renders a coarse ASCII trend for a numeric series.
func sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	marks := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	b.WriteString("trend: ")
	for _, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(marks)-1))
		}
		b.WriteRune(marks[idx])
	}
	return b.String()
}
