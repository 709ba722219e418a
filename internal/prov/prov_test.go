package prov

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func tid(table string, row int) TupleID { return TupleID{Table: table, Row: row} }

func TestVarAndString(t *testing.T) {
	p := Var(tid("train", 3))
	if p.String() != "train[3]" {
		t.Errorf("String = %q", p.String())
	}
	if s := Mul(p, Var(tid("jobs", 1))).String(); s != "jobs[1]·train[3]" {
		t.Errorf("product String = %q", s)
	}
}

func TestMulIdempotentVars(t *testing.T) {
	a := Var(tid("t", 1))
	sq := Mul(a, a)
	if !slices.Equal(sq, a) {
		t.Errorf("a*a = %v, want a", sq)
	}
}

// Mul returns a sorted, duplicate-free product: the union of its factors'
// tuples, a tuple both factors name kept once.
func TestVarsAndDependsOn(t *testing.T) {
	ab := Mul(Var(tid("t", 2)), Var(tid("s", 0)))
	p := Mul(ab, Mul(Var(tid("t", 1)), Var(tid("t", 2))))
	want := Polynomial{tid("s", 0), tid("t", 1), tid("t", 2)}
	if !slices.Equal(p, want) {
		t.Errorf("product = %v, want %v", p, want)
	}
	if !slices.Equal(ab, Polynomial{tid("s", 0), tid("t", 2)}) {
		t.Errorf("factor changed: %v", ab)
	}
}

// randomProduct builds a small random product over nVars variables.
func randomProduct(r *rand.Rand, nVars int) Polynomial {
	p := Var(tid("v", r.Intn(nVars)))
	for j := r.Intn(4); j > 0; j-- {
		p = Mul(p, Var(tid([]string{"u", "v"}[r.Intn(2)], r.Intn(nVars))))
	}
	return p
}

// sortedSet reports whether p is strictly ascending under TupleID.Less.
func sortedSet(p Polynomial) bool {
	for i := 1; i < len(p); i++ {
		if !p[i-1].Less(p[i]) {
			return false
		}
	}
	return true
}

// Property: Mul is commutative, associative and idempotent on random
// products, and always returns a sorted, duplicate-free product.
func TestQuickSemiringLaws(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const nVars = 6
		a, b, c := randomProduct(r, nVars), randomProduct(r, nVars), randomProduct(r, nVars)
		ab := Mul(a, b)
		return sortedSet(a) && sortedSet(ab) &&
			slices.Equal(ab, Mul(b, a)) &&
			slices.Equal(Mul(a, Mul(b, c)), Mul(ab, c)) &&
			slices.Equal(Mul(a, a), a) &&
			slices.Equal(Mul(ab, b), ab)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
