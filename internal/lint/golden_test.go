package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// repoModule loads the whole repo once per test process — module loading
// type-checks the stdlib closure from source, so every test shares it.
var repoModule = sync.OnceValues(func() (*Module, error) {
	root, err := FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return LoadModule(root)
})

func mustModule(t *testing.T) *Module {
	t.Helper()
	m, err := repoModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	return m
}

// RunAnalyzer applies one analyzer to one package, ignoring its Applies
// scope, so the golden tests can drive analyzers over fixture packages
// directly.
func RunAnalyzer(a *Analyzer, m *Module, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	a.Run(&Pass{Mod: m, Pkg: pkg, analyzer: a, diags: &diags})
	sortDiags(diags)
	return diags
}

// TestGolden drives each per-package analyzer over its fixture package
// under testdata/src/<name>/ and checks the findings against the `// want
// "regexp"` comments: every want must be hit on its line, and every
// finding must be wanted. Deadcode reads the whole module, not one
// package; TestDeadcode covers it on a module of its own.
func TestGolden(t *testing.T) {
	for _, a := range Analyzers() {
		if a == Deadcode {
			continue
		}
		t.Run(a.Name, func(t *testing.T) {
			mod := mustModule(t)
			dir := filepath.Join("testdata", "src", a.Name)
			pkg, err := mod.checkDir(dir, "fixture/"+a.Name)
			if err != nil {
				t.Fatalf("checkDir(%s): %v", dir, err)
			}
			diags := RunAnalyzer(a, mod, pkg)
			wants := parseWants(t, dir)

			matched := make(map[*want]bool)
			for _, d := range diags {
				loc := fmt.Sprintf("%s:%d", filepath.Base(d.File), d.Line)
				ok := false
				for _, w := range wants[loc] {
					if w.re.MatchString(d.Message) {
						matched[w] = true
						ok = true
					}
				}
				if !ok {
					t.Errorf("unexpected finding at %s: %s", loc, d.Message)
				}
			}
			for loc, ws := range wants {
				for _, w := range ws {
					if !matched[w] {
						t.Errorf("missing finding at %s: want match for %q", loc, w.re)
					}
				}
			}
		})
	}
}

type want struct{ re *regexp.Regexp }

// wantRx pulls the quoted or backquoted expectation strings out of a
// `// want` comment.
var wantRx = regexp.MustCompile("// want (.+)$")

var quotedRx = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// parseWants scans the fixture sources for `// want "regexp"` comments,
// keyed by "file.go:line".
func parseWants(t *testing.T, dir string) map[string][]*want {
	t.Helper()
	out := make(map[string][]*want)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRx.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			loc := fmt.Sprintf("%s:%d", e.Name(), i+1)
			for _, q := range quotedRx.FindAllStringSubmatch(m[1], -1) {
				pat := q[1]
				if pat == "" {
					pat = q[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", loc, pat, err)
				}
				out[loc] = append(out[loc], &want{re: re})
			}
			if len(out[loc]) == 0 {
				t.Fatalf("%s: want comment with no pattern", loc)
			}
		}
	}
	return out
}
