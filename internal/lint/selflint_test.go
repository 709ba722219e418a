package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSelfLint is the gate behind `make lint`: the tree must produce
// zero findings beyond the checked-in scripts/lint allowlists.
func TestSelfLint(t *testing.T) {
	mod := mustModule(t)
	allow, err := LoadAllowlists(filepath.Join(mod.Root, "scripts", "lint"), Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(mod, Analyzers(), allow)
	for _, d := range Violations(diags) {
		t.Errorf("%s:%d: [%s] %s (key %s)", d.File, d.Line, d.Analyzer, d.Message, d.Key())
	}
	if len(diags) == 0 {
		t.Fatal("self-lint produced zero findings — the allowlisted panic sites alone should appear; the loader is likely skipping packages")
	}
}

// TestPanicsiteSupersetOfRetiredAudit pins the migration contract: the
// AST analyzer must report every panic site the retired awk scanner
// (scripts/panic_audit.sh) had in its allowlist at migration time. The
// snapshot lives in testdata/legacy_panic_allowlist.txt; prune an entry
// only when the panic site itself is removed from the tree.
func TestPanicsiteSupersetOfRetiredAudit(t *testing.T) {
	mod := mustModule(t)
	diags := Run(mod, []*Analyzer{Panicsite}, Allowlists{})
	found := make(map[string]bool, len(diags))
	for _, d := range diags {
		found[d.Key()] = true
	}
	data, err := os.ReadFile(filepath.Join("testdata", "legacy_panic_allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !found[key] {
			t.Errorf("legacy awk audit entry %s not reported by panicsite", key)
		}
	}
}

// TestAllowlistsMatchTree keeps the checked-in allowlists honest in the
// other direction: every entry must still correspond to at least one
// finding, so stale exceptions die with the code they excused.
func TestAllowlistsMatchTree(t *testing.T) {
	mod := mustModule(t)
	allow, err := LoadAllowlists(filepath.Join(mod.Root, "scripts", "lint"), Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Stale(Analyzers(), allow, Run(mod, Analyzers(), allow)) {
		t.Errorf("%s allowlist entry %s: %s", d.Analyzer, d.Key(), d.Message)
	}
}
