package linalg

// useAVX2 reports whether this CPU runs AVX2 and the OS saves the YMM
// registers: a property of the machine, read once.
var useAVX2 = hasAVX2()

// hasAVX2 reads CPUID leaves 1 and 7 and XCR0: AVX2 is usable when the
// CPU has it, has OSXSAVE and AVX, and XCR0 says the OS saves both the XMM
// and the YMM state.
func hasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYMM = 1<<1 | 1<<2
	if xgetbv()&xmmYMM != xmmYMM {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0.
func xgetbv() uint32

// d2RowsAVX2 writes to out[r] the squared distance from a, whose squared
// norm is na, to the r-th of len(out) rows of b, rows d elements apart,
// whose squared norms are nb[r]: the element pairwiseD2RowsGo computes,
// with its four partial sums in the lanes of one vector register. d must
// be at least 4, a must hold d elements, b (len(out)−1)·d + d, and nb
// len(out).
//
//go:noescape
func d2RowsAVX2(a []float64, na float64, b, nb []float64, d int, out []float64)

// pairwiseD2RowsAVX2 is PairwiseD2Rows with d2RowsAVX2 as its body: one
// call per A row per tile of B. a.Cols is at least 4.
func pairwiseD2RowsAVX2(a, b *Matrix, na, nb []float64, lo, hi int, out []float64) {
	d := a.Cols
	n := b.Rows
	for j0 := 0; j0 < n; j0 += d2Tile {
		j1 := min(j0+d2Tile, n)
		tile, tileNorms := b.Data[j0*d:j1*d], nb[j0:j1]
		for i := lo; i < hi; i++ {
			o := (i - lo) * n
			d2RowsAVX2(a.Row(i), na[i], tile, tileNorms, d, out[o+j0:o+j1])
		}
	}
}
