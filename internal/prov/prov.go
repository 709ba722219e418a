// Package prov implements provenance semirings (Green, Karvounarakis,
// Tannen; PODS 2007) for fine-grained row-level lineage in ML pipelines.
//
// Every source tuple is a variable; each output row of a pipeline carries a
// provenance polynomial over those variables. For the select-project-join
// fragment used by preprocessing pipelines, a polynomial is a sum of
// monomials, where each monomial is the set of source tuples that jointly
// produced the output row. Evaluating the polynomial under a boolean
// assignment ("which source tuples are present?") answers the interventional
// question at the heart of pipeline-aware data debugging: if we removed
// these source tuples, would this training row still exist?
package prov

import (
	"fmt"
	"sort"
	"strings"
)

// TupleID identifies one row of one named source table.
type TupleID struct {
	Table string
	Row   int
}

// String renders the tuple id as "table[row]".
func (t TupleID) String() string { return fmt.Sprintf("%s[%d]", t.Table, t.Row) }

// Less orders tuple ids lexicographically by table then row.
func (t TupleID) Less(o TupleID) bool {
	if t.Table != o.Table {
		return t.Table < o.Table
	}
	return t.Row < o.Row
}

// Monomial is a product of distinct variables — the set of source tuples
// that must all be present for one derivation of an output row. Monomials
// are kept sorted and deduplicated (multiplication is idempotent in the
// positive-boolean semiring used for why-provenance).
type Monomial []TupleID

func normalizeMonomial(vars []TupleID) Monomial {
	if len(vars) == 0 {
		return Monomial{}
	}
	sorted := append([]TupleID(nil), vars...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	out := sorted[:1]
	for _, v := range sorted[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return Monomial(out)
}

func (m Monomial) equal(o Monomial) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the monomial as "a[0]·b[3]"; the empty monomial is "1".
func (m Monomial) String() string {
	if len(m) == 0 {
		return "1"
	}
	parts := make([]string, len(m))
	for i, v := range m {
		parts[i] = v.String()
	}
	return strings.Join(parts, "·")
}

// Polynomial is a sum of monomials: the alternative derivations of an
// output row. The zero polynomial (no monomials) is the annotation of a row
// that cannot be derived; the polynomial {1} (one empty monomial) annotates
// a row that exists unconditionally.
type Polynomial struct {
	mons []Monomial
}

// Zero returns the additive identity (no derivations).
func Zero() Polynomial { return Polynomial{} }

// One returns the multiplicative identity (an unconditional derivation).
func One() Polynomial { return Polynomial{mons: []Monomial{{}}} }

// Var returns the polynomial consisting of the single variable t.
func Var(t TupleID) Polynomial {
	return Polynomial{mons: []Monomial{{t}}}
}

// IsZero reports whether the polynomial has no derivations.
func (p Polynomial) IsZero() bool { return len(p.mons) == 0 }

// Monomials returns the monomials of p (shared backing; treat as read-only).
func (p Polynomial) Monomials() []Monomial { return p.mons }

func (p Polynomial) dedup() Polynomial {
	if len(p.mons) <= 1 {
		return p
	}
	sort.Slice(p.mons, func(i, j int) bool { return lessMonomial(p.mons[i], p.mons[j]) })
	out := p.mons[:1]
	for _, m := range p.mons[1:] {
		if !m.equal(out[len(out)-1]) {
			out = append(out, m)
		}
	}
	return Polynomial{mons: out}
}

func lessMonomial(a, b Monomial) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i].Less(b[i])
		}
	}
	return len(a) < len(b)
}

// Add returns a + b (union of derivations).
func Add(a, b Polynomial) Polynomial {
	sum := Polynomial{mons: append(append([]Monomial(nil), a.mons...), b.mons...)}
	return sum.dedup()
}

// Mul returns a * b (joint derivations: every pairing of a derivation of a
// with a derivation of b, with idempotent variable products).
func Mul(a, b Polynomial) Polynomial {
	if a.IsZero() || b.IsZero() {
		return Zero()
	}
	var mons []Monomial
	for _, ma := range a.mons {
		for _, mb := range b.mons {
			mons = append(mons, normalizeMonomial(append(append([]TupleID(nil), ma...), mb...)))
		}
	}
	return Polynomial{mons: mons}.dedup()
}

// EvalBool evaluates the polynomial in the boolean semiring: it reports
// whether at least one derivation has all of its source tuples present.
func (p Polynomial) EvalBool(present func(TupleID) bool) bool {
	for _, m := range p.mons {
		ok := true
		for _, v := range m {
			if !present(v) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Vars returns the distinct variables mentioned anywhere in p, sorted.
func (p Polynomial) Vars() []TupleID {
	seen := make(map[TupleID]bool)
	var out []TupleID
	for _, m := range p.mons {
		for _, v := range m {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// String renders the polynomial as "a[0]·b[1] + a[2]"; the zero polynomial
// renders as "0".
func (p Polynomial) String() string {
	if p.IsZero() {
		return "0"
	}
	parts := make([]string, len(p.mons))
	for i, m := range p.mons {
		parts[i] = m.String()
	}
	return strings.Join(parts, " + ")
}
