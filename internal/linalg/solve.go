package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("linalg: matrix is singular or not positive definite")

// Cholesky computes the lower-triangular factor L with A = L Lᵀ for a
// symmetric positive-definite A. It returns an error wrapping ErrSingular
// when A is not SPD; the error names the failing pivot and whether the
// cause was a NaN (i.e. non-finite input, typically dirty data upstream)
// rather than indefiniteness, so data errors stay diagnosable.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky on %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= float64(l.At(j, k) * l.At(j, k))
		}
		if math.IsNaN(d) {
			return nil, fmt.Errorf("linalg: Cholesky pivot %d of %d is NaN — the input matrix carries NaN (dirty features?): %w", j, n, ErrSingular)
		}
		if d <= 0 {
			return nil, fmt.Errorf("linalg: Cholesky pivot %d of %d is %g ≤ 0 — leading minor not positive definite: %w", j, n, d, ErrSingular)
		}
		l.Set(j, j, math.Sqrt(d))
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= float64(l.At(i, k) * l.At(j, k))
			}
			l.Set(i, j, s/l.At(j, j))
		}
	}
	return l, nil
}

// CholeskySolve solves A x = b given the Cholesky factor L of A.
func CholeskySolve(l *Matrix, b []float64) []float64 {
	n := l.Rows
	// forward substitution: L y = b
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= float64(l.At(i, k) * y[k])
		}
		y[i] = s / l.At(i, i)
	}
	// back substitution: Lᵀ x = y
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= float64(l.At(k, i) * x[k])
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// SolveSPD solves A x = b for symmetric positive-definite A via Cholesky.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return CholeskySolve(l, b), nil
}

// Solve solves the general square system A x = b by Gaussian elimination
// with partial pivoting. A and b are not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Solve on %dx%d matrix", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("linalg: Solve rhs length %d for %dx%d matrix", len(b), a.Rows, a.Cols)
	}
	n := a.Rows
	m := a.Clone()
	x := Clone(b)
	for col := 0; col < n; col++ {
		// pivot
		piv, best := col, math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				piv, best = r, v
			}
		}
		if math.IsNaN(best) {
			return nil, fmt.Errorf("linalg: Solve pivot column %d is NaN — the input matrix carries NaN (dirty features?): %w", col, ErrSingular)
		}
		if best < 1e-12 {
			return nil, fmt.Errorf("linalg: Solve pivot column %d has max |entry| %g: %w", col, best, ErrSingular)
		}
		if piv != col {
			for c := 0; c < n; c++ {
				m.Data[piv*n+c], m.Data[col*n+c] = m.Data[col*n+c], m.Data[piv*n+c]
			}
			x[piv], x[col] = x[col], x[piv]
		}
		// eliminate
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m.Data[r*n+c] -= float64(f * m.Data[col*n+c])
			}
			x[r] -= float64(f * x[col])
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for c := i + 1; c < n; c++ {
			s -= float64(m.At(i, c) * x[c])
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// RidgeSolve returns argmin_w ||X w - y||² + lambda ||w||², solved in closed
// form via the normal equations (Xᵀ X + lambda I) w = Xᵀ y.
func RidgeSolve(x *Matrix, y []float64, lambda float64) ([]float64, error) {
	if len(y) != x.Rows {
		return nil, fmt.Errorf("linalg: RidgeSolve y length %d for %d rows", len(y), x.Rows)
	}
	if lambda < 0 {
		return nil, fmt.Errorf("linalg: negative ridge penalty %v", lambda)
	}
	g := x.Gram()
	g.AddScaledIdentity(lambda)
	rhs := x.MulTransVec(y)
	w, err := SolveSPD(g, rhs)
	if err != nil {
		// Gram matrices are PSD; fall back to the pivoting solver for the
		// semi-definite edge (lambda = 0 with collinear columns).
		return Solve(g, rhs)
	}
	return w, nil
}

// ConjugateGradient solves A x = b for SPD A iteratively, starting from the
// zero vector, until the residual norm falls below tol or maxIter rounds.
func ConjugateGradient(a *Matrix, b []float64, tol float64, maxIter int) []float64 {
	n := len(b)
	x := make([]float64, n)
	r := Clone(b)
	p := Clone(b)
	rs := Dot(r, r)
	for it := 0; it < maxIter && math.Sqrt(rs) > tol; it++ {
		ap := a.MulVec(p)
		denom := Dot(p, ap)
		if denom <= 0 {
			break
		}
		alpha := rs / denom
		AXPY(alpha, p, x)
		AXPY(-alpha, ap, r)
		rsNew := Dot(r, r)
		beta := rsNew / rs
		for i := range p {
			p[i] = r[i] + float64(beta*p[i])
		}
		rs = rsNew
	}
	return x
}
