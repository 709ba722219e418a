// Package lint is the repo's contract-enforcing static analysis pass.
// It loads the module with go/parser + go/types (stdlib only — the same
// no-external-deps ethos as the rest of the tree), runs a small set of
// analyzers that encode the contracts the paper's debugging workflow
// depends on (bit-for-bit determinism, a panic-free facade, nderr error
// wrapping, zero-alloc observability, no package state in the kernels,
// no internal code that nothing runs), and reports findings keyed by
// file:function so deliberate exceptions can be allowlisted under
// scripts/lint/. `cmd/nde-lint` is the driver; `make lint` the entry
// point. See DESIGN.md §10 "Static analysis contract".
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Module is the loaded, type-checked view of one Go module.
type Module struct {
	Root string // absolute directory containing go.mod
	Path string // module path from go.mod (e.g. "nde")
	Fset *token.FileSet

	pkgs map[string]*Package // by import path, fully checked
	dirs map[string]string   // import path -> absolute dir
	std  types.Importer      // stdlib fallback (source importer)

	checking map[string]bool // cycle detection during type-checking
}

// Package is one type-checked package: syntax plus types.Info, which is
// what the analyzers consume.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// The source importer type-checks stdlib dependencies from GOROOT source.
// Cgo-flavored variants of net/os-user would drag the cgo tool in, so the
// loader pins the pure-Go build configuration once for the process.
var disableCgo sync.Once

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod. It is how the driver locates the repo root regardless of the
// working directory it is invoked from.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// LoadModule parses and type-checks every non-test package under root
// (skipping testdata, hidden, and underscore directories). The module's
// own imports resolve recursively from source; stdlib imports resolve
// through the go/importer source importer.
func LoadModule(root string) (*Module, error) {
	disableCgo.Do(func() { build.Default.CgoEnabled = false })
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:     root,
		Path:     modPath,
		Fset:     token.NewFileSet(),
		pkgs:     make(map[string]*Package),
		dirs:     make(map[string]string),
		checking: make(map[string]bool),
	}
	m.std = importer.ForCompiler(m.Fset, "source", nil)

	if err := m.discover(); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(m.dirs))
	for p := range m.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := m.check(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Packages returns every loaded package, sorted by import path.
func (m *Module) Packages() []*Package {
	paths := make([]string, 0, len(m.pkgs))
	for p := range m.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, len(paths))
	for i, p := range paths {
		out[i] = m.pkgs[p]
	}
	return out
}

// Rel returns the repo-root-relative slash-separated path of an absolute
// filename — the spelling used in diagnostic keys and allowlists.
func (m *Module) Rel(filename string) string {
	rel, err := filepath.Rel(m.Root, filename)
	if err != nil {
		return filename
	}
	return filepath.ToSlash(rel)
}

// discover walks the tree collecting every directory that holds non-test
// Go files and records its import path.
func (m *Module) discover() error {
	return filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != m.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		files, err := goFiles(path)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(m.Root, path)
		if err != nil {
			return err
		}
		ip := m.Path
		if rel != "." {
			ip = m.Path + "/" + filepath.ToSlash(rel)
		}
		m.dirs[ip] = path
		return nil
	})
}

// goFiles lists the non-test .go files of dir that match the default
// build constraints (so e.g. a //go:build race variant does not collide
// with its !race twin), sorted for deterministic parse and diagnostic
// order.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil || !ok {
			continue
		}
		files = append(files, filepath.Join(dir, n))
	}
	sort.Strings(files)
	return files, nil
}

// check type-checks one module package (memoized), recursing into module
// dependencies through the importer.
func (m *Module) check(path string) (*Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	if m.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	dir, ok := m.dirs[path]
	if !ok {
		return nil, fmt.Errorf("lint: unknown module package %s", path)
	}
	m.checking[path] = true
	defer delete(m.checking, path)

	pkg, err := m.checkDir(dir, path)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	return pkg, nil
}

// checkDir parses and type-checks the non-test files of dir as import
// path path. The golden tests also point it at fixture directories under
// testdata, whose imports of the module's own packages still resolve.
func (m *Module) checkDir(dir, path string) (*Package, error) {
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(m.Fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*moduleImporter)(m),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, m.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type errors in %s: %v", path, typeErrs[0])
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// moduleImporter resolves the module's own import paths from source and
// delegates everything else (the stdlib) to the source importer.
type moduleImporter Module

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	m := (*Module)(mi)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		p, err := m.check(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return m.std.Import(path)
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mp := strings.TrimSpace(rest)
			if mp != "" {
				return mp, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}
