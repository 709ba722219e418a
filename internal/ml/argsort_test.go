package ml

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// distOrder argsorts idx by (d2[idx], idx) with the comparator the radix
// argsort replaced. It is the reference the property test holds
// argsortInto to.
type distOrder struct {
	d2  []float64
	idx []int
}

func (s *distOrder) Len() int { return len(s.idx) }
func (s *distOrder) Less(a, b int) bool {
	da, db := s.d2[s.idx[a]], s.d2[s.idx[b]]
	if da != db {
		return da < db
	}
	return s.idx[a] < s.idx[b]
}
func (s *distOrder) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// Property: the radix argsort returns exactly the comparator's
// permutation, at sizes around the one-byte digit boundaries and on value
// families that stress the key map — ties, signed zeros, negatives,
// subnormals and huge magnitudes. One scratch is reused across every
// size, so growing and shrinking it is covered too.
func TestArgsortMatchesComparator(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	sub := math.SmallestNonzeroFloat64
	families := map[string]func() float64{
		"gaussian-d2": func() float64 { v := r.NormFloat64() * 30; return v * v },
		"tie-heavy":   func() float64 { return float64(r.Intn(4)) * 0.5 },
		"signed-zero": func() float64 { return []float64{0, math.Copysign(0, -1), sub, -sub}[r.Intn(4)] },
		"negative":    func() float64 { return -math.Abs(r.NormFloat64()) * math.Pow(10, float64(r.Intn(9)-4)) },
		"mixed-sign":  func() float64 { return r.NormFloat64() },
		"subnormal":   func() float64 { return float64(r.Intn(6)-2) * sub * float64(1+r.Intn(1<<20)) },
		"huge": func() float64 {
			return []float64{math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), 1e300, -1e300, 1e-300}[r.Intn(7)]
		},
		"everything": func() float64 {
			switch r.Intn(6) {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return float64(r.Intn(3))
			case 2:
				return -sub * float64(r.Intn(3))
			case 3:
				return math.MaxFloat64 * float64(r.Intn(3)-1)
			case 4:
				return math.Inf(r.Intn(2)*2 - 1)
			default:
				return r.NormFloat64() * 1e10
			}
		},
	}
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	var scratch argsortScratch
	for _, name := range names {
		gen := families[name]
		for _, n := range []int{0, 1, 2, 255, 256, 257, 4097, 3} {
			d := make([]float64, n)
			for i := range d {
				d[i] = gen()
			}
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			sort.Sort(&distOrder{d2: d, idx: want})
			got := make([]int, n)
			for i := range got {
				got[i] = -1 // argsortInto must overwrite every entry
			}
			argsortInto(d, got, &scratch)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d: rank %d is index %d (d=%v), comparator says %d (d=%v)",
						name, n, i, got[i], d[got[i]], want[i], d[want[i]])
				}
			}
		}
	}
}

// The key map is monotone: a < b ⇔ key(a) < key(b), and a == b ⇔ equal
// keys, over the boundary values, signed zeros included.
func TestDistKeyMonotone(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	vals := []float64{
		math.Inf(-1), -math.MaxFloat64, -1e300, -1, -2.2250738585072014e-308, -sub,
		math.Copysign(0, -1), 0, sub, 2.2250738585072014e-308, 1, 1e300, math.MaxFloat64, math.Inf(1),
	}
	for _, a := range vals {
		for _, b := range vals {
			ka, kb := distKey(a), distKey(b)
			if (a < b) != (ka < kb) || (a == b) != (ka == kb) {
				t.Errorf("distKey(%v)=%#x vs distKey(%v)=%#x disagrees with float order", a, ka, b, kb)
			}
		}
	}
}
