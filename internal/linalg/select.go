package linalg

import "fmt"

// SelectColumns returns a new matrix holding the given columns of m, in
// order. Column indices may repeat; each must be in [0, m.Cols). The copy
// is element-exact (no arithmetic), so derived matrices are bit-identical
// to recomputing the same columns from scratch — the property the
// neighbor-index delta maintenance relies on when it narrows a cached
// distance matrix to the surviving training rows.
func (m *Matrix) SelectColumns(cols []int) *Matrix {
	for _, c := range cols {
		if c < 0 || c >= m.Cols {
			panic(fmt.Sprintf("linalg: SelectColumns index %d outside [0,%d)", c, m.Cols))
		}
	}
	out := NewMatrix(m.Rows, len(cols))
	for r := 0; r < m.Rows; r++ {
		src := m.Row(r)
		dst := out.Row(r)
		for o, c := range cols {
			dst[o] = src[c]
		}
	}
	return out
}
