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

// Pass is the reporting context handed to Run, one per analyzer and
// Run; Pkg is the package being analyzed.
type Pass struct {
	Mod      *Module
	Pkg      *Package
	analyzer *Analyzer
	allow    map[string]bool // the analyzer's allowlisted keys
	memo     any             // what the analyzer computes once per module (deadcode's dead set)
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

// Run applies every analyzer to every loaded package it covers and
// returns all findings, allowlist-annotated, in deterministic order.
func Run(m *Module, analyzers []*Analyzer, allow Allowlists) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		p := &Pass{Mod: m, analyzer: a, allow: allow[a.Name], diags: &diags}
		for _, pkg := range m.Packages() {
			if a.Applies != nil && !a.Applies(m.relPkg(pkg.Path)) {
				continue
			}
			p.Pkg = pkg
			a.Run(p)
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
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Func < b.Func
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

// Stale returns one violation per key in the analyzers' allowlists that
// no finding in diags matches, keyed like the finding it once excused,
// so an exception dies with the code it excused. Its Line is 0.
func Stale(analyzers []*Analyzer, allow Allowlists, diags []Diagnostic) []Diagnostic {
	found := make(map[string]bool, len(diags))
	for _, d := range diags {
		found[d.Analyzer+" "+d.Key()] = true
	}
	var out []Diagnostic
	for _, a := range analyzers {
		for key := range allow[a.Name] {
			if found[a.Name+" "+key] {
				continue
			}
			file, fn, _ := strings.Cut(key, ":")
			out = append(out, Diagnostic{
				Analyzer: a.Name,
				File:     file,
				Func:     fn,
				Message:  "stale allowlist key: no finding matches it (run `go run ./cmd/nde-lint -update`)",
			})
		}
	}
	sortDiags(out)
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
// the union of finding keys per analyzer, sorted. The human rationale in
// an existing file is preserved: its leading #-comment block, also when
// the analyzer has no findings, and the comment lines directly above
// each key that is kept. An analyzer with no findings and no rationale
// gets its file removed — an empty contract needs no exceptions file.
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
		header, notes := allowlistComments(path)
		if len(set) == 0 && header == "" {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return err
			}
			continue
		}
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		body := header
		for _, k := range keys {
			body += notes[k] + k + "\n"
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// allowlistComments returns the rationale of an existing allowlist file,
// so -update keeps it: the header — the initial #-comment block, with the
// blank line that ends it, if one does — and, per key, the #-comment
// lines directly above it.
func allowlistComments(path string) (header string, notes map[string]string) {
	notes = make(map[string]string)
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return "", notes
	}
	inHeader := true
	var pending string
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "#") && inHeader:
			header += line + "\n"
		case strings.HasPrefix(trimmed, "#"):
			pending += line + "\n"
		case trimmed == "" && inHeader:
			header += "\n"
			inHeader = false
		case trimmed == "":
			pending = ""
		default:
			inHeader = false
			notes[trimmed] = pending
			pending = ""
		}
	}
	return header, notes
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
	return []*Analyzer{Determinism, Panicsite, Errwrap, Obsguard, Globalstate, Stoptheworld, Deadcode}
}
