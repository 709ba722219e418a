// Command nde-lint runs the repo's contract-enforcing static analysis
// pass (internal/lint) over the whole module: determinism, panicsite,
// errwrap, obsguard, and globalstate. `make lint` and scripts/check.sh
// run it between vet and build; see DESIGN.md §10 "Static analysis
// contract".
//
// Usage:
//
//	nde-lint [-json] [-update] [-allow dir] [-root dir] [analyzer ...]
//
// With no analyzer names, all analyzers run. Findings are keyed
// file:func (globalstate: file:var) and matched against
// scripts/lint/<analyzer>.txt; unmatched findings fail the run. -update
// rewrites the allowlists from the current tree (review the diff — every
// entry is a deliberate exception). -json emits the full finding list,
// allowlisted included, for CI annotations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nde/internal/lint"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nde-lint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run is the whole program behind flag parsing; it returns the exit code
// and errors instead of exiting so tests can drive it in-process.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("nde-lint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as JSON (allowlisted included)")
	update := fs.Bool("update", false, "rewrite the allowlists from the current tree")
	allowDir := fs.String("allow", "scripts/lint", "allowlist directory, relative to the module root")
	root := fs.String("root", "", "module root (default: nearest go.mod above the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	analyzers, err := selectAnalyzers(fs.Args())
	if err != nil {
		return 2, err
	}
	if *root == "" {
		*root, err = lint.FindModuleRoot(".")
		if err != nil {
			return 2, err
		}
	}
	dir := *allowDir
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(*root, dir)
	}

	mod, err := lint.LoadModule(*root)
	if err != nil {
		return 2, err
	}
	if *update {
		diags := lint.Run(mod, analyzers, lint.Allowlists{})
		if err := lint.WriteAllowlists(dir, analyzers, diags); err != nil {
			return 2, err
		}
		fmt.Fprintf(out, "nde-lint: rewrote allowlists in %s (%d findings)\n", dir, len(diags))
		return 0, nil
	}

	allow, err := lint.LoadAllowlists(dir, analyzers)
	if err != nil {
		return 2, err
	}
	diags := lint.Run(mod, analyzers, allow)
	violations := lint.Violations(diags)

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			return 2, err
		}
	} else {
		for _, d := range violations {
			fmt.Fprintf(out, "%s:%d:%d: [%s] %s (key %s)\n", d.File, d.Line, d.Col, d.Analyzer, d.Message, d.Key())
		}
		fmt.Fprintf(out, "nde-lint: %d findings, %d violations (%d allowlisted)\n",
			len(diags), len(violations), len(diags)-len(violations))
	}
	if len(violations) > 0 {
		return 1, nil
	}
	return 0, nil
}

// selectAnalyzers maps positional analyzer names to the registered set;
// no names selects everything.
func selectAnalyzers(names []string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: determinism, panicsite, errwrap, obsguard, globalstate)", n)
		}
		out = append(out, a)
	}
	return out, nil
}
