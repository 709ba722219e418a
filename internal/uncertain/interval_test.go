package uncertain

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	a := NewInterval(1, 3)
	if a.Width() != 2 || a.Center() != 2 {
		t.Errorf("interval stats wrong: %v", a)
	}
	p := Point(5)
	if !p.IsPoint() || p.String() != "5" {
		t.Errorf("Point = %v", p)
	}
	if a.String() != "[1, 3]" {
		t.Errorf("String = %q", a.String())
	}
}

func TestNewIntervalPanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for inverted interval")
		}
	}()
	NewInterval(2, 1)
}

func TestIntervalArithmetic(t *testing.T) {
	a, b := NewInterval(1, 2), NewInterval(-1, 3)
	if got := a.Sub(b); got != (Interval{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Neg(); got != (Interval{-2, -1}) {
		t.Errorf("Neg = %v", got)
	}
	if got := NewInterval(-3, 2).Abs(); got != (Interval{0, 3}) {
		t.Errorf("Abs = %v", got)
	}
	if got := a.Union(b); got != (Interval{-1, 3}) {
		t.Errorf("Union = %v", got)
	}
}

// Property: interval arithmetic is sound — for random concrete values inside
// the operand intervals, the concrete result lies inside the result interval.
func TestQuickIntervalSoundness(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		randIv := func() Interval {
			a, b := r.NormFloat64()*3, r.NormFloat64()*3
			return Interval{math.Min(a, b), math.Max(a, b)}
		}
		pick := func(iv Interval) float64 { return iv.Lo + r.Float64()*iv.Width() }
		for trial := 0; trial < 20; trial++ {
			a, b := randIv(), randIv()
			x, y := pick(a), pick(b)
			const eps = 1e-9
			if !contains(a.Sub(b), x-y, eps) ||
				!contains(a.Neg(), -x, eps) ||
				!contains(a.Abs(), math.Abs(x), eps) ||
				!contains(a.Union(b), x, eps) ||
				!contains(a.Union(b), y, eps) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func contains(iv Interval, x, eps float64) bool {
	return iv.Lo-eps <= x && x <= iv.Hi+eps
}
