// Package linalg provides the small dense linear-algebra kernel used by the
// nde models: vectors, row-major matrices, Cholesky and Gaussian solvers,
// and conjugate gradients. It is deliberately minimal — just enough to
// support logistic/linear/ridge regression, influence functions, and the
// interval models of the uncertain package — and uses no dependencies
// beyond the standard library.
package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b; the slices must have equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// AXPY computes y += alpha*x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: AXPY length mismatch %d vs %d", len(x), len(y)))
	}
	for i := range x {
		y[i] += float64(alpha * x[i])
	}
}

// Scale multiplies v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 { return append([]float64(nil), v...) }
