package lint

import (
	"go/ast"
	"go/types"
)

// deterministicPkgs are the packages whose results must be bit-for-bit
// reproducible across worker counts and runs — the kNN-Shapley
// determinism contract (DESIGN §7/§8) plus everything feeding it.
var deterministicPkgs = []string{
	"internal/par", "internal/linalg", "internal/ml",
	"internal/importance", "internal/pipeline", "internal/cleaning",
}

// Determinism flags the three constructs that silently break bit-for-bit
// reproducibility in the deterministic packages:
//
//   - ranging over a map where the (random) iteration order escapes into
//     an append, a floating-point reduction, output, or a channel send —
//     collecting keys and sorting before use is the sanctioned pattern
//     and is recognized as safe;
//   - time.Now and the global math/rand generator — wall-clock and
//     process-global randomness; seeded rand.New(rand.NewSource(seed))
//     is the sanctioned source;
//   - raw `go` statements outside internal/par — ad-hoc goroutines skip
//     the pool's deterministic index-order reduction.
//
// Telemetry wall-clock reads (span timing in par and pipeline.exec) are
// deliberate and allowlisted in scripts/lint/determinism.txt.
var Determinism = &Analyzer{
	Name:    "determinism",
	Doc:     "no order-escaping map iteration, wall-clock/global randomness, or raw goroutines in deterministic packages",
	Applies: pkgSet(deterministicPkgs...),
	Run:     runDeterminism,
}

func runDeterminism(p *Pass) {
	inPar := p.Mod.relPkg(p.Pkg.Path) == "internal/par"
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			sorted := sortedObjects(p, fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if !inPar {
						p.Report(n, fn, "raw go statement in %s — route parallelism through internal/par so reductions stay index-ordered", fn.Name.Name)
					}
				case *ast.CallExpr:
					checkNondeterministicCall(p, fn, n)
				case *ast.RangeStmt:
					checkMapRange(p, fn, n, sorted)
				}
				return true
			})
		}
	}
}

// checkNondeterministicCall flags time.Now and the global math/rand
// generator. Seeded generators (rand.New, rand.NewSource, rand.NewZipf)
// and *rand.Rand methods are the sanctioned randomness and pass.
func checkNondeterministicCall(p *Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	callee := calleeFunc(p.Pkg.Info, call)
	switch {
	case isPkgFunc(callee, "time") && callee.Name() == "Now":
		p.Report(call, fn, "time.Now in %s — wall-clock reads are nondeterministic; keep timing behind obs and allowlist deliberate telemetry", fn.Name.Name)
	case isPkgFunc(callee, "math/rand") || isPkgFunc(callee, "math/rand/v2"):
		switch callee.Name() {
		case "New", "NewSource", "NewZipf", "NewChaCha8", "NewPCG":
			return
		}
		p.Report(call, fn, "global math/rand.%s in %s — use a seeded rand.New(rand.NewSource(seed)) so runs reproduce", callee.Name(), fn.Name.Name)
	}
}

// checkMapRange flags a range over a map whose iteration order escapes.
func checkMapRange(p *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, sorted map[types.Object]bool) {
	tv, ok := p.Pkg.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if reason := orderEscape(p, rng, sorted); reason != "" {
		p.Report(rng, fn, "map iteration order escapes in %s via %s — iterate sorted keys instead (or sort the collected slice before use)", fn.Name.Name, reason)
	}
}

// orderEscape scans a map-range body for constructs whose result depends
// on iteration order, returning a description of the first one found.
// Two shapes are recognized as order-insensitive and pass: appends into
// slices later handed to sort/slices calls in the same function (the
// sanctioned collect-then-sort pattern), and compound updates indexed by
// the range variables themselves (each entry is touched once, so order
// cannot matter).
func orderEscape(p *Pass, rng *ast.RangeStmt, sorted map[types.Object]bool) string {
	rangeVars := rangeVarObjects(p, rng)
	reason := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			reason = "a channel send"
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && isFloatAccumulate(p, n, rng, rangeVars) {
				reason = "floating-point accumulation (rounding is order-sensitive)"
			}
		case *ast.CallExpr:
			if r := callEscape(p, n, sorted); r != "" {
				reason = r
			}
		}
		return true
	})
	return reason
}

// rangeVarObjects resolves the key/value loop variables of a range
// statement.
func rangeVarObjects(p *Pass, rng *ast.RangeStmt) map[types.Object]bool {
	out := make(map[types.Object]bool, 2)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		id, ok := e.(*ast.Ident)
		if !ok {
			continue
		}
		if obj := p.Pkg.Info.Defs[id]; obj != nil {
			out[obj] = true
		} else if obj := p.Pkg.Info.Uses[id]; obj != nil {
			out[obj] = true
		}
	}
	return out
}

// isFloatAccumulate reports a compound assignment (+=, -=, *=, /=) onto
// a float-typed lvalue that accumulates across iterations: the target
// lives outside the loop body and is not indexed by a range variable.
func isFloatAccumulate(p *Pass, as *ast.AssignStmt, rng *ast.RangeStmt, rangeVars map[types.Object]bool) bool {
	switch as.Tok.String() {
	case "+=", "-=", "*=", "/=":
	default:
		return false
	}
	lhs := ast.Unparen(as.Lhs[0])
	tv, ok := p.Pkg.Info.Types[lhs]
	if !ok {
		return false
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
		return false
	}
	switch l := lhs.(type) {
	case *ast.Ident:
		// A loop-local accumulator resets every iteration; only targets
		// declared outside the body carry order-dependent rounding out.
		if obj := p.Pkg.Info.Uses[l]; obj != nil &&
			obj.Pos() >= rng.Body.Pos() && obj.Pos() < rng.Body.End() {
			return false
		}
	case *ast.IndexExpr:
		// m[k] op= v with k a range variable touches each entry once.
		usesRangeVar := false
		ast.Inspect(l.Index, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && rangeVars[p.Pkg.Info.Uses[id]] {
				usesRangeVar = true
			}
			return true
		})
		if usesRangeVar {
			return false
		}
	}
	return true
}

// callEscape classifies a call inside a map-range body as order-escaping.
func callEscape(p *Pass, call *ast.CallExpr, sorted map[types.Object]bool) string {
	if isBuiltin(p.Pkg.Info, call, "append") && len(call.Args) > 0 {
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := p.Pkg.Info.Uses[id]; obj != nil && sorted[obj] {
				return "" // collect-then-sort pattern
			}
			return "append to " + id.Name + " (unsorted afterwards)"
		}
		return "append (target not sorted afterwards)"
	}
	callee := calleeFunc(p.Pkg.Info, call)
	if callee == nil {
		return ""
	}
	if isPkgFunc(callee, "fmt") {
		switch callee.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return "fmt." + callee.Name() + " output"
		}
	}
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch callee.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return "a ." + callee.Name() + " call"
		}
	}
	return ""
}

// sortedObjects collects the objects passed to any sort.* or slices.*
// call in the function body — the targets of the sanctioned
// collect-then-sort pattern.
func sortedObjects(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(p.Pkg.Info, call)
		if callee == nil || (!isPkgFunc(callee, "sort") && !isPkgFunc(callee, "slices")) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := p.Pkg.Info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}
