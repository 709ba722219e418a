package lint

import (
	"go/ast"
	"go/token"
)

// Globalstate keeps the kernel packages free of process state: every
// package-level var in internal/{ml,importance,pipeline,cleaning} is a
// finding. A store, a knob or a cache at package level is shared by
// every caller in the process, so one caller's traffic evicts another's
// entries and tests must reset it; such state belongs to a value its
// owner holds (an ml.IndexStore in a serve.Server or in the nde facade).
// A sentinel or constant table that must be a var is allowlisted under
// its own name: findings are keyed file:var, not file:func. Blank vars
// (`var _ I = (*T)(nil)`) hold nothing and pass.
var Globalstate = &Analyzer{
	Name:    "globalstate",
	Doc:     "package-level vars in the kernel packages must be allowlisted sentinels or constant tables; state belongs to a value its owner holds",
	Applies: pkgSet("internal/ml", "internal/importance", "internal/pipeline", "internal/cleaning"),
	Run: func(p *Pass) {
		for _, file := range p.Pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						if name.Name == "_" {
							continue
						}
						p.report(name, name.Name, "package-level var %s in a kernel package — hold the state in a value its owner passes in, or allowlist a sentinel or constant table", name.Name)
					}
				}
			}
		}
	},
}
