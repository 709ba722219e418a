package linalg

import (
	"fmt"
	"math"

	"nde/internal/par"
)

// RowNorms2 returns the squared Euclidean norm of every row of m. Each
// product is rounded before it is added (the explicit conversion forbids
// a fused multiply-add), so the norms have the same bits on every
// architecture.
func RowNorms2(m *Matrix) []float64 {
	out := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		s := 0.0
		for _, v := range row {
			s += float64(v * v)
		}
		out[r] = s
	}
	return out
}

// PairwiseD2Rows writes rows [lo, hi) of PairwiseSquaredDistances(a, b)
// into out, row i at out[(i-lo)*b.Rows:], given na = RowNorms2(a) and
// nb = RowNorms2(b). B rows are walked in tiles of d2Tile so they stay in
// cache while the block of A rows streams over them. Each dot product
// keeps four partial sums, s0…s3 over the elements ≡ 0…3 mod 4, adds
// them as ((s0+s1)+s2)+s3 and then the d mod 4 tail in order, and every
// element is na+nb−2·dot clamped at zero. Each element therefore depends
// only on its two rows and their norms, so any row block — and any column
// subset of B — yields the same bits as the full matrix. a.Cols must
// equal b.Cols and out must hold (hi-lo)·b.Rows elements.
//
// On amd64 with AVX2 the partial sums run as the four lanes of one vector
// register (pairwiseD2RowsAVX2); everywhere else, and below four columns,
// pairwiseD2RowsGo runs them as four scalars. Both round every product
// before adding it and add in the same order, so the two bodies agree bit
// for bit (DESIGN §7).
func PairwiseD2Rows(a, b *Matrix, na, nb []float64, lo, hi int, out []float64) {
	if useAVX2 && a.Cols >= 4 {
		pairwiseD2RowsAVX2(a, b, na, nb, lo, hi, out)
		return
	}
	pairwiseD2RowsGo(a, b, na, nb, lo, hi, out)
}

// d2Tile is the number of B rows PairwiseD2Rows keeps in cache at once.
const d2Tile = 64

// pairwiseD2RowsGo is PairwiseD2Rows as four scalar accumulators: the
// fallback on every other architecture and the reference the AVX2 body
// is tested against.
func pairwiseD2RowsGo(a, b *Matrix, na, nb []float64, lo, hi int, out []float64) {
	d := a.Cols
	n := b.Rows
	for j0 := 0; j0 < n; j0 += d2Tile {
		j1 := min(j0+d2Tile, n)
		for i := lo; i < hi; i++ {
			ai := a.Row(i)[:d] // len==d ties the bounds checks to the loop condition
			orow := out[(i-lo)*n : (i-lo+1)*n]
			for j := j0; j < j1; j++ {
				bj := b.Row(j)[:d]
				var s0, s1, s2, s3 float64
				k := 0
				for ; k+3 < d; k += 4 {
					s0 += float64(ai[k] * bj[k])
					s1 += float64(ai[k+1] * bj[k+1])
					s2 += float64(ai[k+2] * bj[k+2])
					s3 += float64(ai[k+3] * bj[k+3])
				}
				dot := s0 + s1 + s2 + s3
				for ; k < d; k++ {
					dot += float64(ai[k] * bj[k])
				}
				v := na[i] + nb[j] - 2*dot
				if v < 0 {
					v = 0
				}
				orow[j] = v
			}
		}
	}
}

// PairwiseSquaredDistances returns the a.Rows × b.Rows matrix D with
// D[i][j] = ‖a.Row(i) − b.Row(j)‖², computed with the Gram trick
// ‖a‖² + ‖b‖² − 2·a·b over cached row norms. Blocks of rows of the output
// are computed independently on the shared pool (workers <= 0 = auto) by
// PairwiseD2Rows, and every element has a fixed summation order, so the
// result is bit-for-bit deterministic for any worker count. Tiny negative
// values produced by floating-point cancellation are clamped to zero.
func PairwiseSquaredDistances(a, b *Matrix, workers int) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: PairwiseSquaredDistances dims %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Rows)
	if a.Rows == 0 || b.Rows == 0 {
		return out
	}
	na := RowNorms2(a)
	nb := RowNorms2(b)
	n := b.Rows
	par.ForBlocks("linalg.pairwise_d2", workers, a.Rows, D2RowBlock, func(_, lo, hi int) {
		PairwiseD2Rows(a, b, na, nb, lo, hi, out.Data[lo*n:hi*n])
	})
	return out
}

// D2RowBlock is the number of rows of A a caller of PairwiseD2Rows hands
// it at once: large enough to reuse each tile of B, small enough to
// load-balance across workers.
const D2RowBlock = 16

// Fingerprint returns a cheap content hash over the matrix shape and the
// raw bits of its elements. Used to key caches of derived quantities
// (e.g. pairwise-distance matrices) by content rather than pointer
// identity, so in-place mutations are detected. The hash mixes one 64-bit
// word per element (murmur-style multiply/xorshift) instead of hashing
// byte-at-a-time: fingerprinting sits on the hot path of every cache
// lookup and delta-index registration, and at 8x fewer multiplies it is
// no longer visible next to the O(n·d) work it keys. Values are
// process-local cache keys, never persisted.
func (m *Matrix) Fingerprint() uint64 {
	h := fpSeed
	h = fpMix(h, uint64(m.Rows))
	h = fpMix(h, uint64(m.Cols))
	for _, v := range m.Data {
		h = fpMix(h, math.Float64bits(v))
	}
	return h
}

const fpSeed uint64 = 14695981039346656037

// fpMix folds one 64-bit word into the running hash: the murmur3
// finalizer's multiply/xorshift applied to the word, combined into h with
// a second multiply. Order-sensitive, deterministic, two multiplies per
// element.
func fpMix(h, v uint64) uint64 {
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	h = (h ^ v) * 0xc4ceb9fe1a85ec53
	return h ^ h>>29
}
