package ml

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// distOrder argsorts idx by (d2[idx], idx) with the comparator the radix
// argsort replaced. It is the reference the property test and the fuzzer
// hold argsortInto to.
type distOrder struct {
	d2  []float64
	idx []int32
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

// checkArgsort argsorts d with argsortInto on scratch and fails unless
// the result is the comparator's permutation.
func checkArgsort(t *testing.T, what string, d []float64, scratch *argsortScratch) {
	t.Helper()
	n := len(d)
	want := make([]int32, n)
	for i := range want {
		want[i] = int32(i)
	}
	sort.Sort(&distOrder{d2: d, idx: want})
	got := make([]int32, n)
	for i := range got {
		got[i] = -1 // argsortInto must overwrite every entry
	}
	argsortInto(d, got, scratch)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s n=%d: rank %d is index %d (d=%v), comparator says %d (d=%v)",
				what, n, i, got[i], d[got[i]], want[i], d[want[i]])
		}
	}
}

// Property: the radix argsort returns exactly the comparator's
// permutation, at sizes around the digit boundaries and at the serve and
// debug-loop row lengths, on value families that stress the key map —
// ties, signed zeros, negatives, subnormals and huge magnitudes — and
// the prefix finish: a cluster a few ulps wide beside one far outlier
// puts the cluster in one run of equal prefix (the comparator finish),
// the same cluster climbing with the index, with rare steps back, makes
// long runs that ascend or break anywhere, and repeated blocks of one
// value make long runs of equal keys. One scratch is reused across
// every size, so growing and shrinking it is covered too.
func TestArgsortMatchesComparator(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	sub := math.SmallestNonzeroFloat64
	var dupVal float64
	dupLeft, climb := 0, 0
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
		"near-duplicate": func() float64 {
			if r.Intn(500) == 0 {
				return 1e6
			}
			return math.Float64frombits(math.Float64bits(42) + uint64(r.Intn(64)))
		},
		"ascending-cluster": func() float64 {
			climb++
			switch {
			case r.Intn(500) == 0:
				return 1e6
			case r.Intn(3000) == 0:
				return 42
			}
			return math.Float64frombits(math.Float64bits(42) + uint64(climb))
		},
		"duplicate-blocks": func() float64 {
			if dupLeft == 0 {
				dupVal, dupLeft = r.NormFloat64()*r.NormFloat64(), 1+r.Intn(200)
			}
			dupLeft--
			return dupVal
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
		for _, n := range []int{0, 1, 2, 255, 256, 257, 2047, 2048, 2049, 4000, 4097, 20000, 3} {
			d := make([]float64, n)
			for i := range d {
				d[i] = gen()
			}
			checkArgsort(t, name, d, &scratch)
		}
	}
}

// FuzzArgsort holds the radix argsort to the comparator on arbitrary
// rows: every 8 bytes of input are one float64, NaN replaced by 0 (out
// of contract, see distKey) and everything else — infinities, signed
// zeros, subnormals — kept.
func FuzzArgsort(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1))))
	var seed []byte
	for _, v := range []float64{3, 1, 0, math.Inf(1), 1, -2, math.Nextafter(1, 2), math.SmallestNonzeroFloat64, 1e300} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	var scratch argsortScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		d := make([]float64, len(data)/8)
		for i := range d {
			if d[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])); math.IsNaN(d[i]) {
				d[i] = 0
			}
		}
		checkArgsort(t, "fuzz", d, &scratch)
	})
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
