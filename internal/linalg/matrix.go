package linalg

import (
	"fmt"
	"math"
	"strings"

	"nde/internal/nderr"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[r*Cols+c]
}

// NewMatrix allocates a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices of equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for r, row := range rows {
		if len(row) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d: %d vs %d", r, len(row), m.Cols))
		}
		copy(m.Data[r*m.Cols:(r+1)*m.Cols], row)
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set stores v at element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r (shared backing).
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: Clone(m.Data)}
}

// SameBits reports whether a and b have the same shape and the same
// float64 bit patterns: at once when they are the same matrix, as a
// label repair's features are its input's. A nil matrix equals only nil.
func SameBits(a, b *Matrix) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Rows != b.Rows || a.Cols != b.Cols || len(a.Data) != len(b.Data) {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// MulVec returns m @ x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec shape %dx%d @ %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		out[r] = Dot(m.Row(r), x)
	}
	return out
}

// MulTransVec returns mᵀ @ x without materializing the transpose.
func (m *Matrix) MulTransVec(x []float64) []float64 {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("linalg: MulTransVec shape %dx%d^T @ %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Cols)
	for r := 0; r < m.Rows; r++ {
		AXPY(x[r], m.Row(r), out)
	}
	return out
}

// AddScaledIdentity adds alpha to the diagonal in place (m must be square).
func (m *Matrix) AddScaledIdentity(alpha float64) {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("linalg: AddScaledIdentity on %dx%d", m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += alpha
	}
}

// Gram returns mᵀ @ m (the Gram matrix of the columns).
func (m *Matrix) Gram() *Matrix {
	g := NewMatrix(m.Cols, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for i := 0; i < m.Cols; i++ {
			if row[i] == 0 {
				continue
			}
			AXPY(row[i], row, g.Row(i))
		}
	}
	return g
}

// FindNonFinite returns the position of the first NaN or ±Inf entry in
// row-major order, or ok=false when every entry is finite.
func (m *Matrix) FindNonFinite() (r, c int, ok bool) {
	for i, v := range m.Data {
		// v != v catches NaN; the range check catches ±Inf without a
		// math.IsInf call per element.
		if v != v || v > math.MaxFloat64 || v < -math.MaxFloat64 {
			return i / m.Cols, i % m.Cols, true
		}
	}
	return 0, 0, false
}

// CheckFinite returns a wrapped nderr.ErrNonFinite naming the first NaN or
// ±Inf entry, or nil when the matrix is entirely finite. what names the
// matrix in the error ("train features", ...).
func (m *Matrix) CheckFinite(what string) error {
	if r, c, bad := m.FindNonFinite(); bad {
		return nderr.NonFinite("linalg: "+what, r, c, m.At(r, c))
	}
	return nil
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for r := 0; r < m.Rows; r++ {
		fmt.Fprintf(&b, "%v\n", m.Row(r))
	}
	return b.String()
}
