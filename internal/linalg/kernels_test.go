package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func naiveSquaredDistance(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Property: the Gram-trick kernel matches the naive ‖a−b‖² within 1e-9 on
// random matrices for any shape and worker count.
func TestQuickPairwiseSquaredDistancesMatchesNaive(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, n, d := r.Intn(20)+1, r.Intn(30)+1, r.Intn(8)+1
		a := randomMatrix(r, q, d)
		b := randomMatrix(r, n, d)
		workers := r.Intn(5) // 0 = auto
		got := PairwiseSquaredDistances(a, b, workers)
		for i := 0; i < q; i++ {
			for j := 0; j < n; j++ {
				want := naiveSquaredDistance(a.Row(i), b.Row(j))
				if math.Abs(got.At(i, j)-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPairwiseSquaredDistancesEdgeShapes(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, shape := range []struct{ q, n, d int }{
		{0, 5, 3}, {5, 0, 3}, {0, 0, 3}, {1, 1, 0}, {4, 7, 0},
	} {
		a := randomMatrix(r, shape.q, shape.d)
		b := randomMatrix(r, shape.n, shape.d)
		got := PairwiseSquaredDistances(a, b, 0)
		if got.Rows != shape.q || got.Cols != shape.n {
			t.Errorf("shape %v: got %dx%d", shape, got.Rows, got.Cols)
		}
		// d=0: all distances are exactly zero
		if shape.d == 0 {
			for _, v := range got.Data {
				if v != 0 {
					t.Errorf("shape %v: nonzero distance %v in zero-dim space", shape, v)
				}
			}
		}
	}
}

// Identical rows must produce a non-negative (clamped) distance, and the
// diagonal of self-distances must be tiny.
func TestPairwiseSquaredDistancesSelfNonNegative(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	a := randomMatrix(r, 25, 6)
	d2 := PairwiseSquaredDistances(a, a, 0)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Rows; j++ {
			if d2.At(i, j) < 0 {
				t.Fatalf("negative squared distance at (%d,%d): %v", i, j, d2.At(i, j))
			}
		}
		if d2.At(i, i) > 1e-9 {
			t.Errorf("self distance %d = %v, want ~0", i, d2.At(i, i))
		}
	}
}

// The kernel must be bit-for-bit identical across worker counts.
func TestPairwiseSquaredDistancesDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := randomMatrix(r, 40, 9)
	b := randomMatrix(r, 33, 9)
	ref := PairwiseSquaredDistances(a, b, 1)
	for _, workers := range []int{2, 3, 8} {
		got := PairwiseSquaredDistances(a, b, workers)
		for i := range ref.Data {
			if got.Data[i] != ref.Data[i] {
				t.Fatalf("workers=%d: element %d differs: %v vs %v", workers, i, got.Data[i], ref.Data[i])
			}
		}
	}
}

// PairwiseD2Rows is the kernel's one body: any row block [lo, hi) it
// writes into a caller's buffer holds the bits of those rows of the full
// matrix, and so does a column subset of B (its rows of b alone).
func TestPairwiseD2RowsMatchFullMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	a := randomMatrix(r, 37, 9)
	b := randomMatrix(r, 150, 9)
	full := PairwiseSquaredDistances(a, b, 2)
	na, nb := RowNorms2(a), RowNorms2(b)
	for _, blk := range [][2]int{{0, 37}, {0, 1}, {5, 21}, {36, 37}} {
		lo, hi := blk[0], blk[1]
		out := make([]float64, (hi-lo)*b.Rows)
		PairwiseD2Rows(a, b, na, nb, lo, hi, out)
		for i := lo; i < hi; i++ {
			for j := 0; j < b.Rows; j++ {
				if got, want := out[(i-lo)*b.Rows+j], full.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("rows [%d,%d): (%d,%d) = %x, full matrix %x", lo, hi, i, j, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
	cols := []int{3, 4, 77, 149}
	sub := NewMatrix(len(cols), b.Cols)
	for o, j := range cols {
		copy(sub.Row(o), b.Row(j))
	}
	subD := PairwiseSquaredDistances(a, sub, 1)
	for i := 0; i < a.Rows; i++ {
		for o, j := range cols {
			if math.Float64bits(subD.At(i, o)) != math.Float64bits(full.At(i, j)) {
				t.Fatalf("column subset: (%d,%d) differs from the full matrix", i, j)
			}
		}
	}
}

// d2Value draws one matrix element: Gaussian, or with probability 1/2
// one of the values whose products round specially — ±0, subnormals,
// and ±1e±300, whose products overflow to ±Inf or underflow to zero, so
// sums of opposite infinities give NaN.
func d2Value(r *rand.Rand) float64 {
	if r.Intn(2) == 0 {
		return r.NormFloat64()
	}
	switch r.Intn(6) {
	case 0:
		return math.Copysign(0, float64(r.Intn(2))-0.5)
	case 1:
		return math.Float64frombits(r.Uint64() & (1<<52 - 1)) // subnormal
	case 2:
		return 1e300 * (float64(r.Intn(2))*2 - 1)
	case 3:
		return 1e-300 * r.NormFloat64()
	case 4:
		return 1e150 * r.NormFloat64()
	}
	return r.NormFloat64() * 1e-160
}

// checkD2Bodies runs PairwiseD2Rows and the Go body over rows [lo, hi)
// of a against b, each into a buffer with sentinels on both sides, and
// fails unless they write the same bits and nothing outside the block.
func checkD2Bodies(t *testing.T, a, b *Matrix, lo, hi int) {
	t.Helper()
	na, nb := RowNorms2(a), RowNorms2(b)
	size := (hi - lo) * b.Rows
	const guard = 4
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	got := make([]float64, size+2*guard)
	want := make([]float64, size)
	for i := range got {
		got[i] = sentinel
	}
	PairwiseD2Rows(a, b, na, nb, lo, hi, got[guard:guard+size])
	pairwiseD2RowsGo(a, b, na, nb, lo, hi, want)
	for i := 0; i < guard; i++ {
		if math.Float64bits(got[i]) != math.Float64bits(sentinel) || math.Float64bits(got[guard+size+i]) != math.Float64bits(sentinel) {
			t.Fatalf("%dx%d vs %dx%d rows [%d,%d): wrote outside its block", a.Rows, a.Cols, b.Rows, b.Cols, lo, hi)
		}
	}
	for e, w := range want {
		if g := got[guard+e]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%dx%d vs %dx%d rows [%d,%d): element (%d,%d) = %v (%x), Go body %v (%x)",
				a.Rows, a.Cols, b.Rows, b.Cols, lo, hi, lo+e/b.Rows, e%b.Rows, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// PairwiseD2Rows equals its Go body bit for bit — on an AVX2 host that
// holds the vector body to the scalar one — for d from 0 to 67 (across
// the 4-lane chunks and every d mod 4 tail), 1–9 query rows against 0–133
// training rows (across the 4-row pass, its one-row remainder and the
// 64-row tile), on Gaussian values and on values whose products are ±0,
// subnormal, infinite or NaN, with training rows that copy query rows
// (the clamp) and query rows that are one-row views into a larger array.
func TestPairwiseD2RowsMatchesGoBody(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 on this host: both bodies are the Go loop")
	}
	r := rand.New(rand.NewSource(28))
	ns := []int{0, 1, 3, 4, 5, 7, 8, 63, 64, 65, 67, 128, 131, 133}
	for d := 0; d <= 67; d++ {
		for c, n := range ns {
			q := 1 + (d+c)%9
			a, b := NewMatrix(q, d), NewMatrix(n, d)
			special := (d+c)%2 == 1
			for _, m := range []*Matrix{a, b} {
				for i := range m.Data {
					if special {
						m.Data[i] = d2Value(r)
					} else {
						m.Data[i] = r.NormFloat64()
					}
				}
			}
			for j := 0; j < n; j += 3 { // identical rows: the clamp
				copy(b.Row(j), a.Row(j%q))
			}
			checkD2Bodies(t, a, b, 0, q)
			if q > 1 {
				checkD2Bodies(t, a, b, 1, q)
			}
			for i := 0; i < q; i++ { // one-row views, as KNN.Predict passes
				view := &Matrix{Rows: 1, Cols: d, Data: a.Data[i*d : (i+1)*d]}
				checkD2Bodies(t, view, b, 0, 1)
			}
		}
	}
}

// FuzzPairwiseD2Rows holds PairwiseD2Rows to its Go body on fuzzed
// shapes and element bits. Inputs are finite, as every caller's are
// (ml.Dataset.CheckFinite); a non-finite draw has its exponent cleared.
func FuzzPairwiseD2Rows(f *testing.F) {
	f.Add(uint8(3), uint8(70), uint8(33), uint8(2), []byte("seed"))
	f.Add(uint8(1), uint8(4), uint8(4), uint8(0), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(uint8(9), uint8(133), uint8(67), uint8(5), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, q, n, d, lo uint8, bits []byte) {
		qr, nr, dc := 1+int(q)%9, int(n)%134, int(d)%68
		a, b := NewMatrix(qr, dc), NewMatrix(nr, dc)
		p := 0
		next := func() float64 {
			var w uint64
			for i := 0; i < 8 && len(bits) > 0; i++ {
				w = w<<8 | uint64(bits[p%len(bits)])
				p++
			}
			v := math.Float64frombits(w)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = math.Float64frombits(w &^ (0x7ff << 52))
			}
			return v
		}
		for i := range a.Data {
			a.Data[i] = next()
		}
		for i := range b.Data {
			b.Data[i] = next()
		}
		if nr > 0 {
			copy(b.Row(nr-1), a.Row(0))
		}
		checkD2Bodies(t, a, b, int(lo)%qr, qr)
	})
}

func TestFingerprintDetectsMutation(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	a := randomMatrix(r, 10, 4)
	fp := a.Fingerprint()
	if a.Fingerprint() != fp {
		t.Fatal("fingerprint not stable")
	}
	a.Data[17] += 1e-12
	if a.Fingerprint() == fp {
		t.Error("fingerprint missed an in-place mutation")
	}
	b := a.Clone()
	if b.Fingerprint() != a.Fingerprint() {
		t.Error("clone fingerprint differs")
	}
	// shape participates: a 2x2 and 4x1 with the same data must differ
	m1 := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	m2 := &Matrix{Rows: 4, Cols: 1, Data: []float64{1, 2, 3, 4}}
	if m1.Fingerprint() == m2.Fingerprint() {
		t.Error("shape not part of the fingerprint")
	}
}

func BenchmarkPairwiseSquaredDistances(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	q := randomMatrix(r, 64, 16)
	tr := randomMatrix(r, 512, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PairwiseSquaredDistances(q, tr, 0)
	}
}

// BenchmarkPairwiseD2Rows times one index-build block: 16 query rows
// against 4000 training rows of 32 features, the shape and block the
// serve-cold workload's builds run (ml.NeighborIndex, linalg.D2RowBlock).
func BenchmarkPairwiseD2Rows(b *testing.B) {
	for _, body := range []struct {
		name string
		fn   func(a, b *Matrix, na, nb []float64, lo, hi int, out []float64)
	}{{"dispatch", PairwiseD2Rows}, {"go", pairwiseD2RowsGo}} {
		b.Run(body.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(16))
			q := randomMatrix(r, D2RowBlock, 32)
			tr := randomMatrix(r, 4000, 32)
			nq, nt := RowNorms2(q), RowNorms2(tr)
			out := make([]float64, q.Rows*tr.Rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body.fn(q, tr, nq, nt, 0, q.Rows, out)
			}
		})
	}
}

func BenchmarkPairwiseNaive(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	q := randomMatrix(r, 64, 16)
	tr := randomMatrix(r, 512, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := NewMatrix(q.Rows, tr.Rows)
		for x := 0; x < q.Rows; x++ {
			for y := 0; y < tr.Rows; y++ {
				out.Set(x, y, naiveSquaredDistance(q.Row(x), tr.Row(y)))
			}
		}
	}
}
