package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotPkgs are the kernels on the measured paths: their obs call sites
// must be zero-alloc while observability is off (the PR-1 contract,
// enforced dynamically by alloc benchmarks and here statically).
var hotPkgs = []string{
	"internal/par", "internal/linalg", "internal/ml", "internal/ann",
	"internal/importance", "internal/cleaning",
}

// Obsguard flags obs calls in hot kernels whose arguments force an
// allocation before the enabled check inside obs can short-circuit:
// fmt.Sprintf/strconv formatting, non-constant string concatenation,
// string<->[]byte conversions, composite literals, bucket constructors,
// and closures. Arguments evaluate at the call site, so `obs.Inc(name +
// "_total")` allocates on every call even when obs is off. Sites
// lexically inside an `if obs.Enabled() { ... }` block — or in a
// function that opens with `if !obs.Enabled() { return }` — only pay
// when telemetry is on, and pass.
var Obsguard = &Analyzer{
	Name:    "obsguard",
	Doc:     "obs call arguments in hot kernels must not allocate outside an obs.Enabled() guard",
	Applies: pkgSet(hotPkgs...),
	Run:     runObsguard,
}

func runObsguard(p *Pass) {
	obsPath := p.Mod.Path + "/internal/obs"
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var stack []ast.Node
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				call, ok := n.(*ast.CallExpr)
				if !ok || !fromPkg(calleeFunc(p.Pkg.Info, call), obsPath) {
					return true
				}
				if guardedByEnabled(p, fn, stack, obsPath) {
					return true
				}
				for _, arg := range call.Args {
					if what := allocatingExpr(p, arg, obsPath); what != "" {
						p.Report(call, fn, "obs call in %s allocates via %s with obs off — precompute, or guard with if obs.Enabled()", fn.Name.Name, what)
						break
					}
				}
				return true
			})
		}
	}
}

// guardedByEnabled reports whether the innermost node of stack only
// executes when obs is enabled: an ancestor `if obs.Enabled()` then-
// branch (or the else-branch of `if !obs.Enabled()`), or an enclosing
// function whose body opens with `if !obs.Enabled() { return }`.
func guardedByEnabled(p *Pass, fn *ast.FuncDecl, stack []ast.Node, obsPath string) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			if i+1 >= len(stack) {
				continue
			}
			inBody := stack[i+1] == n.Body
			inElse := n.Else != nil && stack[i+1] == n.Else
			if inBody && isEnabledCond(p, n.Cond, obsPath, false) {
				return true
			}
			if inElse && isEnabledCond(p, n.Cond, obsPath, true) {
				return true
			}
		case *ast.FuncLit:
			if opensWithDisabledReturn(p, n.Body, obsPath) && !insideFirstStmt(n.Body, stack, i) {
				return true
			}
		}
	}
	return opensWithDisabledReturn(p, fn.Body, obsPath) && !insideFirstStmt(fn.Body, stack, -1)
}

// isEnabledCond matches obs.Enabled() (negated=false) or !obs.Enabled()
// (negated=true).
func isEnabledCond(p *Pass, cond ast.Expr, obsPath string, negated bool) bool {
	cond = ast.Unparen(cond)
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		return negated && isEnabledCond(p, u.X, obsPath, false)
	}
	if negated {
		return false
	}
	call, ok := cond.(*ast.CallExpr)
	if !ok {
		return false
	}
	callee := calleeFunc(p.Pkg.Info, call)
	return fromPkg(callee, obsPath) && callee.Name() == "Enabled"
}

// opensWithDisabledReturn matches a body whose first statement is
// `if !obs.Enabled() { return ... }` — everything after it runs with
// obs on.
func opensWithDisabledReturn(p *Pass, body *ast.BlockStmt, obsPath string) bool {
	if len(body.List) == 0 {
		return false
	}
	ifs, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil || len(ifs.Body.List) == 0 {
		return false
	}
	if _, ok := ifs.Body.List[len(ifs.Body.List)-1].(*ast.ReturnStmt); !ok {
		return false
	}
	return isEnabledCond(p, ifs.Cond, obsPath, true)
}

// insideFirstStmt reports whether the walk is currently inside
// body.List[0] — the guard statement itself, which runs with obs off.
// from is the stack index of the node owning body (-1 for the walk
// root, whose stack holds body children directly).
func insideFirstStmt(body *ast.BlockStmt, stack []ast.Node, from int) bool {
	for i := from + 1; i < len(stack); i++ {
		if stack[i] == body.List[0] {
			return true
		}
	}
	return false
}

// allocatingExpr scans an argument expression for a construct that
// forces an allocation at the call site, returning a description of the
// first one found ("" if none).
func allocatingExpr(p *Pass, arg ast.Expr, obsPath string) string {
	what := ""
	ast.Inspect(arg, func(n ast.Node) bool {
		if what != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CompositeLit:
			what = "a composite literal"
		case *ast.FuncLit:
			what = "a closure"
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(p, n) {
				what = "non-constant string concatenation"
			}
		case *ast.CallExpr:
			what = allocatingCall(p, n, obsPath)
		}
		return true
	})
	return what
}

// allocatingCall classifies a call inside an obs argument.
func allocatingCall(p *Pass, call *ast.CallExpr, obsPath string) string {
	if isBuiltin(p.Pkg.Info, call, "append") {
		return "append"
	}
	if tgt, ok := isConversion(p.Pkg.Info, call); ok && len(call.Args) == 1 {
		srcTV, ok := p.Pkg.Info.Types[call.Args[0]]
		if !ok {
			return ""
		}
		if tv, ok := p.Pkg.Info.Types[call]; ok && tv.Value != nil {
			return "" // constant-folded
		}
		_, tgtStr := tgt.Underlying().(*types.Basic)
		tgtIsString := tgtStr && tgt.Underlying().(*types.Basic).Info()&types.IsString != 0
		srcB, srcIsBasic := srcTV.Type.Underlying().(*types.Basic)
		srcIsString := srcIsBasic && srcB.Info()&types.IsString != 0
		if tgtIsString && !srcIsString {
			return "a string conversion"
		}
		if _, isSlice := tgt.Underlying().(*types.Slice); isSlice && srcIsString {
			return "a string-to-slice conversion"
		}
		return ""
	}
	callee := calleeFunc(p.Pkg.Info, call)
	switch {
	case isPkgFunc(callee, "fmt"):
		return "fmt." + callee.Name()
	case isPkgFunc(callee, "strconv"):
		return "strconv." + callee.Name()
	case fromPkg(callee, obsPath) && (callee.Name() == "ExpBuckets" || callee.Name() == "LinearBuckets"):
		return "obs." + callee.Name() + " (allocates the bounds slice)"
	}
	return ""
}

// isNonConstString reports a string-typed expression the compiler cannot
// constant-fold.
func isNonConstString(p *Pass, e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
