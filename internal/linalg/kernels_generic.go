//go:build !amd64

package linalg

// useAVX2 is false off amd64: PairwiseD2Rows runs pairwiseD2RowsGo.
const useAVX2 = false

// pairwiseD2RowsAVX2 is never called off amd64.
func pairwiseD2RowsAVX2(a, b *Matrix, na, nb []float64, lo, hi int, out []float64) {
	pairwiseD2RowsGo(a, b, na, nb, lo, hi, out)
}
