// Command nde-challenge runs the §3.2 data-debugging challenge either with
// scripted contestants (the default) or interactively: the player reads the
// dirty training data, submits row ids to the cleaning oracle, and watches
// the hidden-test score move on the leaderboard.
//
// Usage:
//
//	nde-challenge [-n 300] [-seed 42] [-budget 30] [-interactive]
//	              [telemetry flags]
//
// The shared telemetry flags (-metrics, -trace, -ledger, -slowspan, -ops,
// -ops-pprof, -ops-wait; see internal/obs/ops) enable observability for
// the run.
//
// Interactive commands (stdin):
//
//	hint           print the 10 most suspicious rows by kNN-Shapley
//	submit 3 17 42 clean the listed rows and score
//	board          print the leaderboard
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"nde"
	"nde/internal/challenge"
	"nde/internal/datagen"
	"nde/internal/exp"
	"nde/internal/importance"
	"nde/internal/obs/ops"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nde-challenge:", err)
		os.Exit(1)
	}
}

// run is the whole program behind flag parsing; it returns errors instead
// of exiting so the smoke tests can drive both modes in-process.
func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("nde-challenge", flag.ContinueOnError)
	n := fs.Int("n", 300, "scenario size")
	seed := fs.Int64("seed", 42, "random seed")
	budget := fs.Int("budget", 30, "oracle repair budget")
	interactive := fs.Bool("interactive", false, "play on stdin instead of running scripted contestants")
	tf := ops.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sess, err := tf.Start("nde-challenge", os.Stderr)
	if err != nil {
		return err
	}
	if *interactive {
		err = playInteractive(*n, *seed, *budget, in, out)
	} else {
		err = runScripted(*n, *seed, out)
	}
	if cerr := sess.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func runScripted(n int, seed int64, out io.Writer) error {
	r, err := exp.E9Challenge(n, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, r.Table)
	fmt.Fprintln(out, r.Leaderboard)
	return nil
}

func playInteractive(n int, seed int64, budget int, in io.Reader, out io.Writer) error {
	s := nde.LoadRecommendationLetters(n, seed)
	dTrain, dValid, dTest, err := nde.FeaturizeLetterSplits(s.Train, s.Valid, s.Test)
	if err != nil {
		return err
	}
	truth := append([]int(nil), dTrain.Y...)
	dirty, corrupted, err := datagen.FlipDatasetLabels(dTrain, 0.2, seed+2)
	if err != nil {
		return err
	}
	c, err := challenge.New(dirty, truth, dValid, dTest, nil, budget)
	if err != nil {
		return err
	}
	base, err := c.BaselineScore()
	if err != nil {
		return err
	}
	var lb challenge.Leaderboard
	fmt.Fprintf(out, "data-debugging challenge: %d training rows, %d hidden errors, budget %d\n",
		dirty.Len(), len(corrupted), budget)
	fmt.Fprintf(out, "baseline hidden-test accuracy: %.4f\n", base)
	fmt.Fprintln(out, "commands: hint | submit <ids...> | board | quit")

	sc := bufio.NewScanner(in)
	for fmt.Fprint(out, "> "); sc.Scan(); fmt.Fprint(out, "> ") {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "hint":
			scores, err := importance.KNNShapley(5, c.Train(), c.Valid())
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintln(out, "most suspicious rows:", scores.BottomK(10))
		case "submit":
			var rows []int
			ok := true
			for _, f := range fields[1:] {
				v, err := strconv.Atoi(f)
				if err != nil {
					fmt.Fprintln(out, "error: bad id", f)
					ok = false
					break
				}
				rows = append(rows, v)
			}
			if !ok || len(rows) == 0 {
				continue
			}
			score, err := c.Submit(rows)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintf(out, "hidden-test accuracy: %.4f (budget left %d)\n", score, c.BudgetLeft())
			lb.Submit(challenge.Entry{Name: "you", Score: score, Repairs: len(rows), Baseline: base})
		case "board":
			fmt.Fprintln(out, lb.String())
		case "quit", "exit":
			return nil
		default:
			fmt.Fprintln(out, "unknown command:", fields[0])
		}
	}
	return sc.Err()
}
