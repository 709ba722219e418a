package lint

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// deadcodeModule is a small module exercising every deadcode rule: cmd/x
// (a root, outside internal/) calls a.Used, and internal/a holds live,
// dead and test-only declarations.
var deadcodeModule = map[string]string{
	"go.mod": "module tiny\n\ngo 1.22\n",
	"cmd/x/main.go": `package main

import (
	"fmt"

	"tiny/internal/a"
)

func main() { fmt.Println(a.Used()) }
`,
	"internal/a/a.go": `package a

import "strconv"

// Doer is satisfied by Live, whose Do nothing calls directly.
type Doer interface{ Do() int }

// Live's zero mode is ModeZero.
type Live struct {
	n    int
	mode Mode
}

// String satisfies fmt.Stringer: fmt calls it, the module never does.
func (l Live) String() string { return strconv.Itoa(l.n) }

func (l Live) Do() int { return l.n + int(l.mode) }

func (l Live) Unused() int { return l.n + 1 }

func Used() Doer { return Live{n: 1} }

func Dead() int { return helper() + viaDead() }

func helper() int { return 1 }

func viaDead() int { return 2 }

func TestOnly() int { return 3 }

type Mode int

// ModeZero selects the default without being named anywhere.
const (
	ModeZero Mode = iota
	ModeOne
)
`,
	"internal/a/a_test.go": `package a

import "testing"

func TestOnlyCaller(t *testing.T) { _ = TestOnly() }
`,
}

// TestDeadcode runs the analyzer over deadcodeModule. Reported: a dead
// func, its unexported helper and what only it reaches, a method of a
// live type that nothing calls, and a func only a _test.go file calls.
// Not reported: a func a non-internal package calls, methods satisfying
// fmt.Stringer and a module interface, and consts. An allowlisted key is
// still reported (the key excuses it) but roots what it calls.
func TestDeadcode(t *testing.T) {
	root := t.TempDir()
	for name, body := range deadcodeModule {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(allow Allowlists) []string {
		var out []string
		for _, d := range Run(mod, []*Analyzer{Deadcode}, allow) {
			out = append(out, d.Key())
		}
		slices.Sort(out)
		return out
	}

	want := []string{
		"internal/a/a.go:Dead",
		"internal/a/a.go:Live.Unused",
		"internal/a/a.go:TestOnly",
		"internal/a/a.go:helper",
		"internal/a/a.go:viaDead",
	}
	if got := keys(Allowlists{}); !slices.Equal(got, want) {
		t.Errorf("findings = %v, want %v", got, want)
	}

	seam := Allowlists{"deadcode": {"internal/a/a.go:Dead": true}}
	want = []string{
		"internal/a/a.go:Dead",
		"internal/a/a.go:Live.Unused",
		"internal/a/a.go:TestOnly",
	}
	if got := keys(seam); !slices.Equal(got, want) {
		t.Errorf("findings with Dead allowlisted = %v, want %v", got, want)
	}
}
