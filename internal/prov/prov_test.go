package prov

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func tid(table string, row int) TupleID { return TupleID{Table: table, Row: row} }

func TestVarAndString(t *testing.T) {
	p := Var(tid("train", 3))
	if p.String() != "train[3]" {
		t.Errorf("String = %q", p.String())
	}
	if Zero().String() != "0" {
		t.Errorf("Zero = %q", Zero().String())
	}
	if One().String() != "1" {
		t.Errorf("One = %q", One().String())
	}
}

func TestAddDedups(t *testing.T) {
	a := Var(tid("t", 1))
	sum := Add(a, a)
	if len(sum.Monomials()) != 1 {
		t.Errorf("a + a should dedup, got %v", sum)
	}
}

func TestMulIdempotentVars(t *testing.T) {
	a := Var(tid("t", 1))
	sq := Mul(a, a)
	if !sq.Equal(a) {
		t.Errorf("a*a = %v, want a", sq)
	}
}

func TestMulDistributesOverAdd(t *testing.T) {
	a, b, c := Var(tid("t", 1)), Var(tid("t", 2)), Var(tid("s", 0))
	left := Mul(a, Add(b, c))
	right := Add(Mul(a, b), Mul(a, c))
	if !left.Equal(right) {
		t.Errorf("a(b+c)=%v != ab+ac=%v", left, right)
	}
}

func TestZeroOneLaws(t *testing.T) {
	a := Mul(Var(tid("t", 1)), Var(tid("s", 2)))
	if !Add(a, Zero()).Equal(a) {
		t.Error("a + 0 != a")
	}
	if !Mul(a, One()).Equal(a) {
		t.Error("a * 1 != a")
	}
	if !Mul(a, Zero()).IsZero() {
		t.Error("a * 0 != 0")
	}
}

func TestEvalBool(t *testing.T) {
	// p = t1·s0 + t2: output row exists if (t1 and s0) or t2 present.
	p := Add(Mul(Var(tid("t", 1)), Var(tid("s", 0))), Var(tid("t", 2)))
	cases := []struct {
		present map[TupleID]bool
		want    bool
	}{
		{map[TupleID]bool{tid("t", 1): true, tid("s", 0): true}, true},
		{map[TupleID]bool{tid("t", 1): true}, false},
		{map[TupleID]bool{tid("t", 2): true}, true},
		{map[TupleID]bool{}, false},
	}
	for i, c := range cases {
		got := p.EvalBool(func(id TupleID) bool { return c.present[id] })
		if got != c.want {
			t.Errorf("case %d: EvalBool = %v, want %v", i, got, c.want)
		}
	}
	if One().EvalBool(func(TupleID) bool { return false }) != true {
		t.Error("One must evaluate true under any assignment")
	}
	if Zero().EvalBool(func(TupleID) bool { return true }) != false {
		t.Error("Zero must evaluate false under any assignment")
	}
}

func TestVarsAndDependsOn(t *testing.T) {
	p := Add(Mul(Var(tid("t", 2)), Var(tid("s", 0))), Var(tid("t", 1)))
	vars := p.Vars()
	if len(vars) != 3 || vars[0] != tid("s", 0) || vars[1] != tid("t", 1) || vars[2] != tid("t", 2) {
		t.Errorf("Vars = %v", vars)
	}
}

// randomPoly builds a small random polynomial over nVars variables.
func randomPoly(r *rand.Rand, nVars int) Polynomial {
	p := Zero()
	nm := r.Intn(4)
	for i := 0; i < nm; i++ {
		m := One()
		for j := 0; j < 1+r.Intn(3); j++ {
			m = Mul(m, Var(tid("v", r.Intn(nVars))))
		}
		p = Add(p, m)
	}
	return p
}

// Property: semiring laws hold observationally under EvalBool for random
// polynomials and random boolean assignments.
func TestQuickSemiringLaws(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const nVars = 6
		a, b, c := randomPoly(r, nVars), randomPoly(r, nVars), randomPoly(r, nVars)
		assign := make(map[TupleID]bool)
		for i := 0; i < nVars; i++ {
			assign[tid("v", i)] = r.Intn(2) == 0
		}
		ev := func(p Polynomial) bool { return p.EvalBool(func(id TupleID) bool { return assign[id] }) }
		if ev(Add(a, b)) != (ev(a) || ev(b)) {
			return false
		}
		if ev(Mul(a, b)) != (ev(a) && ev(b)) {
			return false
		}
		if ev(Add(a, Add(b, c))) != ev(Add(Add(a, b), c)) {
			return false
		}
		if ev(Mul(a, Mul(b, c))) != ev(Mul(Mul(a, b), c)) {
			return false
		}
		if ev(Mul(a, Add(b, c))) != ev(Add(Mul(a, b), Mul(a, c))) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Equal reports whether two polynomials have identical canonical monomials.
func (p Polynomial) Equal(o Polynomial) bool {
	a, b := p.dedup(), o.dedup()
	if len(a.mons) != len(b.mons) {
		return false
	}
	for i := range a.mons {
		if !a.mons[i].equal(b.mons[i]) {
			return false
		}
	}
	return true
}
