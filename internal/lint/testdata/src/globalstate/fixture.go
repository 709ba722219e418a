// Package fixture exercises the globalstate analyzer: every named
// package-level var is a finding, keyed by its own name, while blank
// vars, constants, types and function-local vars are not.
package fixture

import "errors"

// ErrSentinel is a sentinel a kernel package would allowlist.
var ErrSentinel = errors.New("fixture: sentinel") // want "package-level var ErrSentinel"

// cache is process state shared by every caller.
var cache = map[string]int{} // want "package-level var cache"

var (
	hits, misses int // want "package-level var hits" "package-level var misses"

	// a blank var holds nothing: no finding
	_ = cache["k"]
)

// capacity is a constant: no finding.
const capacity = 4

// Store is a type; the state lives in its values.
type Store struct{ entries map[string]int }

// New keeps its state local: no finding.
func New() *Store {
	var s = &Store{entries: map[string]int{}}
	return s
}
