package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %v", Dot(a, b))
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Errorf("Norm2 = %v", Norm2([]float64{3, 4}))
	}
	y := Clone(b)
	AXPY(2, a, y)
	if y[0] != 6 || y[2] != 12 {
		t.Errorf("AXPY = %v", y)
	}
	s := Clone(a)
	Scale(-1, s)
	if s[1] != -2 {
		t.Errorf("Scale = %v", s)
	}
	if MaxAbsDiff(a, b) != 3 {
		t.Errorf("MaxAbsDiff = %v", MaxAbsDiff(a, b))
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 6 {
		t.Fatalf("matrix wrong: %v", m)
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Error("Set failed")
	}
	tr := m.T()
	if tr.Rows != 2 || tr.Cols != 3 || tr.At(1, 2) != 6 {
		t.Errorf("transpose wrong: %v", tr)
	}
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) != 9 {
		t.Error("Clone shares storage")
	}
}

func TestMulVecAndTrans(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	got := m.MulVec([]float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v", got)
	}
	gt := m.MulTransVec([]float64{1, 1})
	if gt[0] != 4 || gt[1] != 6 {
		t.Errorf("MulTransVec = %v", gt)
	}
}

func TestMatMulAndGram(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{0, 1}, {1, 0}})
	ab := a.MatMul(b)
	if ab.At(0, 0) != 2 || ab.At(0, 1) != 1 || ab.At(1, 0) != 4 || ab.At(1, 1) != 3 {
		t.Errorf("MatMul = %v", ab)
	}
	g := a.Gram()
	want := a.T().MatMul(a)
	if MaxAbsDiff(g.Data, want.Data) > 1e-12 {
		t.Errorf("Gram = %v want %v", g, want)
	}
}

func TestCholeskyAndSolve(t *testing.T) {
	// A = [[4,2],[2,3]] is SPD
	a := FromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	recon := l.MatMul(l.T())
	if MaxAbsDiff(recon.Data, a.Data) > 1e-12 {
		t.Errorf("L L^T = %v != A", recon)
	}
	x, err := SolveSPD(a, []float64{8, 7})
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(a.MulVec(x), []float64{8, 7}) > 1e-10 {
		t.Errorf("SolveSPD residual too big: x=%v", x)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	if _, err := Cholesky(a); err == nil {
		t.Error("expected ErrSingular")
	}
	rect := NewMatrix(2, 3)
	if _, err := Cholesky(rect); err == nil {
		t.Error("expected shape error")
	}
}

func TestSolveGeneral(t *testing.T) {
	// needs pivoting: zero on the diagonal
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Errorf("Solve = %v", x)
	}
	sing := FromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := Solve(sing, []float64{1, 1}); err == nil {
		t.Error("expected ErrSingular")
	}
	if _, err := Solve(a, []float64{1}); err == nil {
		t.Error("expected rhs length error")
	}
}

func TestRidgeSolveRecoversWeights(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n, d := 200, 4
	w := []float64{1.5, -2, 0.5, 3}
	x := NewMatrix(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, r.NormFloat64())
		}
		y[i] = Dot(x.Row(i), w) + 0.01*r.NormFloat64()
	}
	got, err := RidgeSolve(x, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(got, w) > 0.05 {
		t.Errorf("ridge weights = %v, want ~%v", got, w)
	}
}

func TestRidgeSolveCollinearFallsBack(t *testing.T) {
	// two identical columns with lambda>0 is solvable
	x := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	w, err := RidgeSolve(x, []float64{2, 4, 6}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// symmetric solution: both weights equal
	if math.Abs(w[0]-w[1]) > 1e-9 {
		t.Errorf("collinear ridge weights = %v", w)
	}
}

func TestConjugateGradientMatchesDirect(t *testing.T) {
	a := FromRows([][]float64{{4, 1, 0}, {1, 3, 1}, {0, 1, 5}})
	b := []float64{1, 2, 3}
	want, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := ConjugateGradient(a, b, 1e-12, 100)
	if MaxAbsDiff(got, want) > 1e-8 {
		t.Errorf("CG = %v, direct = %v", got, want)
	}
}

// Property: for random SPD systems, Solve, SolveSPD and CG agree and satisfy
// A x = b.
func TestQuickSolversAgree(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		base := NewMatrix(n, n)
		for i := range base.Data {
			base.Data[i] = r.NormFloat64()
		}
		a := base.Gram() // B^T B is PSD
		a.AddScaledIdentity(0.5)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x1, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		x2, err := Solve(a, b)
		if err != nil {
			return false
		}
		x3 := ConjugateGradient(a, b, 1e-12, 500)
		if MaxAbsDiff(x1, x2) > 1e-6 || MaxAbsDiff(x1, x3) > 1e-6 {
			return false
		}
		return MaxAbsDiff(a.MulVec(x1), b) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Cholesky reconstruction L L^T = A for random SPD matrices.
func TestQuickCholeskyReconstruction(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		base := NewMatrix(n, n)
		for i := range base.Data {
			base.Data[i] = r.NormFloat64()
		}
		a := base.Gram()
		a.AddScaledIdentity(0.25)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		return MaxAbsDiff(l.MatMul(l.T()).Data, a.Data) < 1e-8
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			t.Data[c*t.Cols+r] = m.Data[r*m.Cols+c]
		}
	}
	return t
}

// MatMul returns m @ o.
func (m *Matrix) MatMul(o *Matrix) *Matrix {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("linalg: MatMul shape %dx%d @ %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	out := NewMatrix(m.Rows, o.Cols)
	for r := 0; r < m.Rows; r++ {
		for k := 0; k < m.Cols; k++ {
			a := m.Data[r*m.Cols+k]
			if a == 0 {
				continue
			}
			orow := o.Data[k*o.Cols : (k+1)*o.Cols]
			AXPY(a, orow, out.Row(r))
		}
	}
	return out
}

// MaxAbsDiff returns max_i |a[i]-b[i]|.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: MaxAbsDiff length mismatch %d vs %d", len(a), len(b)))
	}
	m := 0.0
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}
