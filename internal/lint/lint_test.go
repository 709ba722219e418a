package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHasWrapVerb(t *testing.T) {
	cases := []struct {
		format string
		want   bool
	}{
		{"plain", false},
		{"%v", false},
		{"%w", true},
		{"x: %w", true},
		{"%d rows: %w", true},
		{"%%w literal", false},
		{"100%%written: %v", false},
		{"%[1]w", true},
		{"%-8w", true},
		{"%ww %d", true},
		{"", false},
		{"trailing %", false},
	}
	for _, c := range cases {
		if got := hasWrapVerb(c.format); got != c.want {
			t.Errorf("hasWrapVerb(%q) = %v, want %v", c.format, got, c.want)
		}
	}
}

func TestAllowlistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	diags := []Diagnostic{
		{Analyzer: "panicsite", File: "a.go", Func: "F"},
		{Analyzer: "panicsite", File: "a.go", Func: "F"}, // duplicate key collapses
		{Analyzer: "panicsite", File: "b.go", Func: "G"},
		{Analyzer: "determinism", File: "c.go", Func: "H"},
	}
	analyzers := Analyzers()
	if err := WriteAllowlists(dir, analyzers, diags); err != nil {
		t.Fatal(err)
	}
	al, err := LoadAllowlists(dir, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	if !al["panicsite"]["a.go:F"] || !al["panicsite"]["b.go:G"] || !al["determinism"]["c.go:H"] {
		t.Fatalf("round trip lost entries: %v", al)
	}
	if len(al["panicsite"]) != 2 {
		t.Fatalf("panicsite allowlist = %v, want 2 entries", al["panicsite"])
	}
	// Analyzers with no findings must not leave files behind.
	if _, err := os.Stat(filepath.Join(dir, "errwrap.txt")); !os.IsNotExist(err) {
		t.Fatalf("errwrap.txt should not exist: %v", err)
	}
}

func TestAllowlistUpdatePreservesComments(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "panicsite.txt")
	seed := "# rationale line one\n# rationale line two\nstale.go:Old\n"
	if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := []Diagnostic{{Analyzer: "panicsite", File: "a.go", Func: "F"}}
	if err := WriteAllowlists(dir, Analyzers(), diags); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	if !strings.HasPrefix(got, "# rationale line one\n# rationale line two\n") {
		t.Errorf("leading comments not preserved:\n%s", got)
	}
	if strings.Contains(got, "stale.go:Old") {
		t.Errorf("stale entry survived -update:\n%s", got)
	}
	if !strings.Contains(got, "a.go:F") {
		t.Errorf("fresh entry missing:\n%s", got)
	}

	// an analyzer left with no findings keeps its rationale, not its keys
	empty := filepath.Join(dir, "errwrap.txt")
	if err := os.WriteFile(empty, []byte("# why\nstale.go:Old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteAllowlists(dir, Analyzers(), diags); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(empty); err != nil || string(data) != "# why\n" {
		t.Errorf("finding-free allowlist = %q, %v; want its header only", data, err)
	}

	// a note directly above a key stays with the key; a stale key's goes
	noted := "# header\n\n# note for F\na.go:F\n# note for Old\nstale.go:Old\n"
	if err := os.WriteFile(path, []byte(noted), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteAllowlists(dir, Analyzers(), diags); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "# header\n\n# note for F\na.go:F\n" {
		t.Errorf("noted allowlist = %q, %v; want the header and F's note", data, err)
	}
}

func TestLoadAllowlistsSkipsCommentsAndBlanks(t *testing.T) {
	dir := t.TempDir()
	body := "# header\n\na.go:F\n  b.go:G  \n# trailer\n"
	if err := os.WriteFile(filepath.Join(dir, "errwrap.txt"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	al, err := LoadAllowlists(dir, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if !al["errwrap"]["a.go:F"] || !al["errwrap"]["b.go:G"] || len(al["errwrap"]) != 2 {
		t.Fatalf("parsed allowlist = %v", al["errwrap"])
	}
}

func TestFindModuleRoot(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("root %s has no go.mod: %v", root, err)
	}
	if _, err := FindModuleRoot(t.TempDir()); err == nil {
		t.Error("FindModuleRoot in a bare temp dir should fail")
	}
}

// TestModuleCoverage pins the loader against silent scope loss: the
// packages the analyzers exist for must all be loaded.
func TestModuleCoverage(t *testing.T) {
	mod := mustModule(t)
	want := []string{
		"nde", "nde/internal/serve", "nde/internal/par", "nde/internal/linalg",
		"nde/internal/ml", "nde/internal/importance",
		"nde/internal/pipeline", "nde/internal/cleaning", "nde/internal/obs",
		"nde/cmd/nde-lint",
	}
	have := make(map[string]bool)
	for _, p := range mod.Packages() {
		have[p.Path] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("package %s not loaded", w)
		}
	}
}
