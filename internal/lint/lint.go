package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding. Key() — "file:function", the same spelling
// the retired awk panic audit used — is what allowlists match against, so
// a deliberate exception survives line-number churn inside the function.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	File     string         `json:"file"` // repo-root-relative, slash-separated
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Func     string         `json:"func"` // enclosing top-level function, "-" at file scope (globalstate: the var)
	Message  string         `json:"message"`
	Allowed  bool           `json:"allowed"` // present in the analyzer's allowlist
	pos      token.Position `json:"-"`
}

// Key is the allowlist identity of the finding.
func (d Diagnostic) Key() string { return d.File + ":" + d.Func }

// An Analyzer encodes one contract. Applies scopes it to the packages
// where the contract holds — it receives the module-relative package
// path ("" for the root package, "internal/par", ...). Run reports
// findings through the Pass.
type Analyzer struct {
	Name    string
	Doc     string
	Applies func(relPkg string) bool
	Run     func(p *Pass)
}

// Pass is the per-(analyzer, package) reporting context handed to Run.
type Pass struct {
	Mod      *Module
	Pkg      *Package
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Report records a finding at node n, attributed to the enclosing
// top-level function fn (nil for file-scope findings).
func (p *Pass) Report(n ast.Node, fn *ast.FuncDecl, format string, args ...any) {
	name := "-"
	if fn != nil {
		name = fn.Name.Name
	}
	p.report(n, name, format, args...)
}

// report records a finding at node n keyed by name in place of the
// enclosing function.
func (p *Pass) report(n ast.Node, name, format string, args ...any) {
	pos := p.Mod.Fset.Position(n.Pos())
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		File:     p.Mod.Rel(pos.Filename),
		Line:     pos.Line,
		Col:      pos.Column,
		Func:     name,
		Message:  fmt.Sprintf(format, args...),
		pos:      pos,
	})
}

// InspectFuncs walks every top-level function declaration in the package
// and calls visit for each node inside it, with the declaration supplied
// so findings can be keyed. The walk includes nested function literals
// (attributed to the enclosing declaration, matching the awk scanner's
// attribution).
func (p *Pass) InspectFuncs(visit func(fn *ast.FuncDecl, n ast.Node) bool) {
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if n == nil {
					return false
				}
				return visit(fn, n)
			})
		}
	}
}

// RunAnalyzer applies one analyzer to one package, ignoring its Applies
// scope — the golden tests use it to drive analyzers over fixture
// packages directly.
func RunAnalyzer(a *Analyzer, m *Module, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	a.Run(&Pass{Mod: m, Pkg: pkg, analyzer: a, diags: &diags})
	sortDiags(diags)
	return diags
}

// Run applies every analyzer to every loaded package it covers and
// returns all findings, allowlist-annotated, in deterministic order.
func Run(m *Module, analyzers []*Analyzer, allow Allowlists) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range m.Packages() {
			if a.Applies != nil && !a.Applies(m.relPkg(pkg.Path)) {
				continue
			}
			a.Run(&Pass{Mod: m, Pkg: pkg, analyzer: a, diags: &diags})
		}
	}
	for i := range diags {
		diags[i].Allowed = allow[diags[i].Analyzer][diags[i].Key()]
	}
	sortDiags(diags)
	return diags
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// Violations filters to the findings not covered by an allowlist.
func Violations(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Allowed {
			out = append(out, d)
		}
	}
	return out
}

// Allowlists maps analyzer name -> set of allowed "file:func" keys.
type Allowlists map[string]map[string]bool

// LoadAllowlists reads dir/<analyzer>.txt for each analyzer. A missing
// file is an empty allowlist. Lines are keys; blank lines and #-comments
// are ignored.
func LoadAllowlists(dir string, analyzers []*Analyzer) (Allowlists, error) {
	al := make(Allowlists, len(analyzers))
	for _, a := range analyzers {
		set := make(map[string]bool)
		data, err := os.ReadFile(filepath.Join(dir, a.Name+".txt"))
		if err != nil {
			if !os.IsNotExist(err) {
				return nil, err
			}
		} else {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if line == "" || strings.HasPrefix(line, "#") {
					continue
				}
				set[line] = true
			}
		}
		al[a.Name] = set
	}
	return al, nil
}

// WriteAllowlists rewrites dir/<analyzer>.txt from the given findings:
// the union of finding keys per analyzer, sorted. A leading #-comment
// block in an existing file (the human rationale) is preserved, also
// when the analyzer has no findings; otherwise an analyzer with no
// findings gets its file removed — an empty contract needs no exceptions
// file.
func WriteAllowlists(dir string, analyzers []*Analyzer, diags []Diagnostic) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	byAnalyzer := make(map[string]map[string]bool)
	for _, d := range diags {
		set := byAnalyzer[d.Analyzer]
		if set == nil {
			set = make(map[string]bool)
			byAnalyzer[d.Analyzer] = set
		}
		set[d.Key()] = true
	}
	for _, a := range analyzers {
		path := filepath.Join(dir, a.Name+".txt")
		set := byAnalyzer[a.Name]
		header := leadingComments(path)
		if len(set) == 0 && header == "" {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return err
			}
			continue
		}
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k+"\n")
		}
		sort.Strings(keys)
		body := header + strings.Join(keys, "")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// leadingComments returns the initial #-comment block of an existing
// allowlist file (terminated by the first non-comment line), so -update
// keeps the recorded rationale.
func leadingComments(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	var b strings.Builder
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "#") {
			break
		}
		b.WriteString(line)
		b.WriteString("\n")
	}
	return b.String()
}

// relPkg maps an import path of this module to its module-relative form:
// "" for the root package, "internal/par" for nde/internal/par.
func (m *Module) relPkg(pkgPath string) string {
	if pkgPath == m.Path {
		return ""
	}
	return strings.TrimPrefix(pkgPath, m.Path+"/")
}

// Analyzers returns the repo's analyzer set, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Determinism, Panicsite, Errwrap, Obsguard, Globalstate}
}
