package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"colocmodel/internal/xrand"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// mul is the matrix product a·b: the accumulating kernel on a zeroed
// destination.
func mul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	AccumMatMul(out, a, b)
	return out
}

// diffNorm is the Frobenius norm of a − b.
func diffNorm(a, b *Matrix) float64 {
	s := 0.0
	for i, v := range a.Data {
		d := v - b.Data[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// symmetric returns (m + mᵀ)/2.
func symmetric(m *Matrix) *Matrix {
	out := m.T()
	for i, v := range m.Data {
		out.Data[i] = (out.Data[i] + v) / 2
	}
	return out
}

// residual returns b − a·x.
func residual(b []float64, a *Matrix, x []float64) []float64 {
	r := a.MulVec(x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return r
}

func randomMatrix(src *xrand.Source, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = src.Normal(0, 1)
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("Set/At mismatch")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 5 {
		t.Fatal("Row mismatch")
	}
	if len(m.Col(2)) != 2 || m.Col(2)[1] != 5 {
		t.Fatal("Col mismatch")
	}
}

func TestMatrixFromRowsAndString(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatal("NewMatrixFromRows wrong layout")
	}
	if m.String() == "" {
		t.Fatal("String empty")
	}
}

func TestRaggedRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows did not panic")
		}
	}()
	NewMatrixFromRows([][]float64{{1, 2}, {3}})
}

func TestTransposeInvolution(t *testing.T) {
	src := xrand.New(1)
	m := randomMatrix(src, 4, 7)
	tt := m.T().T()
	for i := range m.Data {
		if m.Data[i] != tt.Data[i] {
			t.Fatal("T().T() != identity")
		}
	}
}

func TestMulIdentity(t *testing.T) {
	src := xrand.New(2)
	m := randomMatrix(src, 5, 5)
	p := mul(m, Identity(5))
	for i := range m.Data {
		if !approxEq(p.Data[i], m.Data[i], 1e-12) {
			t.Fatal("M·I != M")
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c := mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul wrong at (%d,%d): %v", i, j, c.At(i, j))
			}
		}
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	src := xrand.New(3)
	a := randomMatrix(src, 6, 4)
	x := make([]float64, 4)
	for i := range x {
		x[i] = src.Normal(0, 1)
	}
	xm := NewMatrix(4, 1)
	copy(xm.Data, x)
	want := mul(a, xm)
	got := a.MulVec(x)
	for i := 0; i < 6; i++ {
		if !approxEq(got[i], want.At(i, 0), 1e-12) {
			t.Fatal("MulVec disagrees with Mul")
		}
	}
}

func TestDotNormAXPY(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	if !approxEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2 wrong")
	}
	y := []float64{1, 1, 1}
	AXPY(2, a, y)
	if y[2] != 7 {
		t.Fatalf("AXPY wrong: %v", y)
	}
}

func TestQRReconstruction(t *testing.T) {
	src := xrand.New(5)
	for _, dims := range [][2]int{{4, 4}, {8, 3}, {20, 6}, {50, 8}} {
		a := randomMatrix(src, dims[0], dims[1])
		qr, err := QRFactor(a)
		if err != nil {
			t.Fatal(err)
		}
		// Verify by solving A x = A e_j exactly for square systems, or
		// that residual is orthogonal to the column space for tall ones.
		x0 := make([]float64, dims[1])
		for i := range x0 {
			x0[i] = src.Normal(0, 1)
		}
		b := a.MulVec(x0)
		x, err := qr.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if !approxEq(x[i], x0[i], 1e-8) {
				t.Fatalf("QR solve of consistent system wrong: got %v want %v", x[i], x0[i])
			}
		}
	}
}

func TestQRLeastSquaresResidualOrthogonal(t *testing.T) {
	src := xrand.New(6)
	a := randomMatrix(src, 30, 5)
	b := make([]float64, 30)
	for i := range b {
		b[i] = src.Normal(0, 1)
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r := residual(b, a, x)
	// Normal equations: Aᵀ r = 0 at the least-squares optimum.
	atr := a.T().MulVec(r)
	for _, v := range atr {
		if math.Abs(v) > 1e-8 {
			t.Fatalf("residual not orthogonal to columns: %v", atr)
		}
	}
}

func TestQRRequiresTall(t *testing.T) {
	if _, err := QRFactor(NewMatrix(2, 3)); err == nil {
		t.Fatal("QRFactor accepted wide matrix")
	}
}

func TestLeastSquaresRankDeficientFallsBack(t *testing.T) {
	// Two identical columns: rank deficient; ridge fallback should still
	// produce a finite solution with small residual.
	a := NewMatrixFromRows([][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
	b := []float64{2, 4, 6, 8}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r := residual(b, a, x)
	if Norm2(r) > 1e-3 {
		t.Fatalf("rank-deficient fit residual too large: %v", Norm2(r))
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite solution")
		}
	}
}

func TestRidgeRejectsBadLambda(t *testing.T) {
	a := NewMatrix(3, 2)
	if _, err := RidgeRegression(a, []float64{1, 2, 3}, 0); err == nil {
		t.Fatal("ridge accepted lambda=0")
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if diffNorm(mul(l, l.T()), a) > 1e-12 {
		t.Fatal("L·Lᵀ != A")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("Cholesky accepted indefinite matrix")
	}
}

func TestCholeskySolveKnown(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{4, 2}, {2, 3}})
	x, err := CholeskySolve(a, []float64{10, 9})
	if err != nil {
		t.Fatal(err)
	}
	// 4x+2y=10, 2x+3y=9 -> x=1.5, y=2.
	if !approxEq(x[0], 1.5, 1e-10) || !approxEq(x[1], 2, 1e-10) {
		t.Fatalf("CholeskySolve wrong: %v", x)
	}
}

func TestJacobiEigenKnown(t *testing.T) {
	// Symmetric matrix with known eigenvalues {3, 1}.
	a := NewMatrixFromRows([][]float64{{2, 1}, {1, 2}})
	e, err := JacobiEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(e.Values[0], 3, 1e-10) || !approxEq(e.Values[1], 1, 1e-10) {
		t.Fatalf("eigenvalues %v, want [3 1]", e.Values)
	}
}

func TestJacobiEigenReconstruction(t *testing.T) {
	src := xrand.New(7)
	for _, n := range []int{2, 4, 8} {
		// Build a random symmetric matrix.
		b := randomMatrix(src, n, n)
		a := symmetric(b)
		e, err := JacobiEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct V Λ Vᵀ.
		lam := NewMatrix(n, n)
		for i, v := range e.Values {
			lam.Set(i, i, v)
		}
		recon := mul(mul(e.Vectors, lam), e.Vectors.T())
		if err := diffNorm(recon, a); err > 1e-8*(1+a.FrobeniusNorm()) {
			t.Fatalf("n=%d: VΛVᵀ != A (err %v)", n, err)
		}
		// Eigenvectors orthonormal.
		if diffNorm(mul(e.Vectors.T(), e.Vectors), Identity(n)) > 1e-9 {
			t.Fatalf("n=%d: VᵀV != I", n)
		}
		// Sorted descending.
		for i := 1; i < n; i++ {
			if e.Values[i] > e.Values[i-1]+1e-12 {
				t.Fatalf("eigenvalues not sorted: %v", e.Values)
			}
		}
	}
}

func TestJacobiEigenRejectsAsymmetric(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := JacobiEigen(a); err == nil {
		t.Fatal("JacobiEigen accepted asymmetric matrix")
	}
}

// Property: for random consistent systems, LeastSquares recovers the
// generating coefficients.
func TestLeastSquaresPropertyRecovery(t *testing.T) {
	src := xrand.New(8)
	f := func(seed uint16) bool {
		s := xrand.New(uint64(seed) + 1000)
		rows := 10 + s.Intn(40)
		cols := 1 + s.Intn(6)
		a := randomMatrix(s, rows, cols)
		x0 := make([]float64, cols)
		for i := range x0 {
			x0[i] = s.Normal(0, 3)
		}
		b := a.MulVec(x0)
		x, err := LeastSquares(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !approxEq(x[i], x0[i], 1e-6*(1+math.Abs(x0[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = src
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestTransposeProductProperty(t *testing.T) {
	f := func(seed uint16) bool {
		s := xrand.New(uint64(seed))
		m, k, n := 1+s.Intn(6), 1+s.Intn(6), 1+s.Intn(6)
		a := randomMatrix(s, m, k)
		b := randomMatrix(s, k, n)
		return diffNorm(mul(a, b).T(), mul(b.T(), a.T())) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQRSolve2000x8(b *testing.B) {
	src := xrand.New(9)
	a := randomMatrix(src, 2000, 8)
	rhs := make([]float64, 2000)
	for i := range rhs {
		rhs[i] = src.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LeastSquares(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJacobiEigen8(b *testing.B) {
	src := xrand.New(10)
	m := randomMatrix(src, 8, 8)
	a := symmetric(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := JacobiEigen(a); err != nil {
			b.Fatal(err)
		}
	}
}
