package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Stoptheworld keeps stop-the-world calls out of the served code: a span
// or a handler that calls runtime.ReadMemStats, runtime.GC or
// debug.FreeOSMemory stalls every other goroutine of the daemon, other
// requests included, while it runs. Telemetry reads runtime/metrics
// instead, which stops nothing. Every use is a finding, a function value
// as well as a call. All packages are covered except bench/, a module of
// its own that measures with these calls outside its timed windows; test
// files are not loaded.
var Stoptheworld = &Analyzer{
	Name:    "stoptheworld",
	Doc:     "no runtime.ReadMemStats, runtime.GC or debug.FreeOSMemory outside tests and bench/: each stops every goroutine",
	Applies: func(rel string) bool { return rel != "bench" && !strings.HasPrefix(rel, "bench/") },
	Run: func(p *Pass) {
		for _, file := range p.Pkg.Files {
			for _, decl := range file.Decls {
				fn, _ := decl.(*ast.FuncDecl)
				ast.Inspect(decl, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if f, _ := p.Pkg.Info.Uses[sel.Sel].(*types.Func); stopsTheWorld(f) {
							p.Report(sel, fn, "%s.%s stops the world — read runtime/metrics instead", f.Pkg().Name(), f.Name())
						}
					}
					return true
				})
			}
		}
	},
}

// stopsTheWorld reports whether f is runtime.ReadMemStats, runtime.GC or
// debug.FreeOSMemory.
func stopsTheWorld(f *types.Func) bool {
	switch {
	case isPkgFunc(f, "runtime"):
		return f.Name() == "ReadMemStats" || f.Name() == "GC"
	case isPkgFunc(f, "runtime/debug"):
		return f.Name() == "FreeOSMemory"
	}
	return false
}
