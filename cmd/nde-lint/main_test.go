package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nde/internal/lint"
)

// TestRunJSONCleanTree runs the real driver over the repo: exit 0, and
// the JSON stream holds only allowlisted findings (the deliberate panic
// sites and telemetry clocks).
func TestRunJSONCleanTree(t *testing.T) {
	var buf bytes.Buffer
	code, err := run([]string{"-json"}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit code %d, output:\n%s", code, buf.String())
	}
	var diags []lint.Diagnostic
	if err := json.Unmarshal(buf.Bytes(), &diags); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	if len(diags) == 0 {
		t.Fatal("expected allowlisted findings in JSON output, got none")
	}
	for _, d := range diags {
		if !d.Allowed {
			t.Errorf("unallowlisted finding escaped exit code: %+v", d)
		}
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete CI annotation fields: %+v", d)
		}
	}
}

// TestRunViolationAndUpdate drives the full violation -> -update ->
// clean cycle, then a stale allowlist key through the same cycle, against
// a synthetic one-file module, so it stays cheap.
func TestRunViolationAndUpdate(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module tinymod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "tiny.go"), `package tinymod

import "errors"

func Boom() error {
	return errors.New("bare")
}
`)

	var buf bytes.Buffer
	code, err := run([]string{"-root", dir, "errwrap"}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 1 || !strings.Contains(buf.String(), "errors.New inside Boom") {
		t.Fatalf("exit %d, output:\n%s", code, buf.String())
	}

	buf.Reset()
	if code, err = run([]string{"-root", dir, "-update", "errwrap"}, &buf); err != nil || code != 0 {
		t.Fatalf("-update: exit %d, err %v", code, err)
	}
	allow, err := os.ReadFile(filepath.Join(dir, "scripts", "lint", "errwrap.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(allow)); got != "tiny.go:Boom" {
		t.Fatalf("allowlist = %q, want tiny.go:Boom", got)
	}

	buf.Reset()
	if code, err = run([]string{"-root", dir, "errwrap"}, &buf); err != nil || code != 0 {
		t.Fatalf("post-update run: exit %d, err %v, output:\n%s", code, err, buf.String())
	}

	// a key no finding matches fails the run until -update drops it
	allowPath := filepath.Join(dir, "scripts", "lint", "errwrap.txt")
	writeFile(t, allowPath, "# why\ngone.go:Old\ntiny.go:Boom\n")
	buf.Reset()
	code, err = run([]string{"-root", dir, "errwrap"}, &buf)
	if err != nil || code != 1 || !strings.Contains(buf.String(), "gone.go:Old") || !strings.Contains(buf.String(), "-update") {
		t.Fatalf("stale key: exit %d, err %v, output:\n%s", code, err, buf.String())
	}
	buf.Reset()
	if code, err = run([]string{"-root", dir, "-update", "errwrap"}, &buf); err != nil || code != 0 {
		t.Fatalf("-update: exit %d, err %v", code, err)
	}
	if allow, err := os.ReadFile(allowPath); err != nil || string(allow) != "# why\ntiny.go:Boom\n" {
		t.Fatalf("allowlist after -update = %q, %v; want the stale key dropped", allow, err)
	}
}

func writeFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownAnalyzer(t *testing.T) {
	var buf bytes.Buffer
	_, err := run([]string{"nosuch"}, &buf)
	if err == nil {
		t.Fatal("expected error for unknown analyzer")
	}
	for _, a := range lint.Analyzers() {
		if !strings.Contains(err.Error(), a.Name) {
			t.Errorf("error %q does not list analyzer %s", err, a.Name)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if code, _ := run([]string{"-definitely-not-a-flag"}, &buf); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}
