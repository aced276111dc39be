package linalg

import (
	"math"
	"testing"

	"colocmodel/internal/xrand"
)

// naiveMul is the reference triple loop with strictly ascending k per
// destination element — the order the blocked kernels must reproduce.
func naiveMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// TestBlockedKernelsMatchNaive drives the blocked GEMM variants, each on
// a zeroed destination, over randomized non-square shapes — including
// empty and single-row/column extremes and shapes straddling the block
// edge — and checks agreement with the naive reference. AccumMatMul
// accumulates each element in the reference's order, so it must agree
// exactly (up to ±0).
func TestBlockedKernelsMatchNaive(t *testing.T) {
	matPaths(t, func(t *testing.T) {
		src := xrand.New(41)
		shapes := [][2]int{{0, 3}, {1, 1}, {3, 0}, {2, 5}, {7, 3}, {63, 9}, {64, 65}, {130, 17}, {5, 129}}
		for _, sa := range shapes {
			for _, k := range []int{0, 1, 7, 64, 70} {
				a := randomMatrix(src, sa[0], k)
				b := randomMatrix(src, k, sa[1])
				want := naiveMul(a, b)

				got := NewMatrix(a.Rows, b.Cols)
				AccumMatMul(got, a, b)
				matrixApproxEqual(t, "AccumMatMul", got, want, 0)

				// MulABTBias takes b packed: a·(bᵀ)ᵀ = a·b.
				got2 := NewMatrix(a.Rows, b.Cols)
				MulABTBias(got2, a, b, make([]float64, b.Cols))
				matrixApproxEqual(t, "MulABTBias", got2, want, 1e-13)

				at := a.T()
				got3 := NewMatrix(at.Cols, b.Cols)
				AccumMulATB(got3, at, b)
				matrixApproxEqual(t, "AccumMulATB", got3, want, 1e-13)
			}
		}
	})
}

// TestMatMulIntoMatchesMul pins the blocked AccumMatMul, on a zeroed
// destination, bit-for-bit to the scalar product it replaced: ascending k
// per element, skipping zero entries of a.
func TestMatMulIntoMatchesMul(t *testing.T) {
	src := xrand.New(42)
	for _, sh := range [][3]int{{3, 4, 5}, {65, 64, 63}, {1, 100, 1}, {128, 2, 128}} {
		a := randomMatrix(src, sh[0], sh[1])
		b := randomMatrix(src, sh[1], sh[2])
		// Inject zeros so the zero-skip path is exercised.
		for i := 0; i < len(a.Data); i += 7 {
			a.Data[i] = 0
		}
		want := NewMatrix(sh[0], sh[2])
		for i := 0; i < a.Rows; i++ {
			for k := 0; k < a.Cols; k++ {
				aik := a.At(i, k)
				if aik == 0 {
					continue
				}
				for j := 0; j < b.Cols; j++ {
					want.Data[i*want.Cols+j] += aik * b.At(k, j)
				}
			}
		}
		got := NewMatrix(sh[0], sh[2])
		AccumMatMul(got, a, b)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("shape %v: AccumMatMul differs from the scalar product at %d: %v vs %v", sh, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestAccumVariantsStartFromDst checks where each product's sums start:
// AccumMatMul accumulates onto a pre-initialised destination, and
// MulABTBias starts every row at one bias row whatever dst held. Both
// must equal the ordered scalar sum from that start bit for bit.
func TestAccumVariantsStartFromDst(t *testing.T) {
	matPaths(t, func(t *testing.T) {
		src := xrand.New(43)
		a := randomMatrix(src, 9, 5)
		b := randomMatrix(src, 5, 7)
		bias := randomMatrix(src, 9, 7)

		got := bias.Clone()
		AccumMatMul(got, a, b)
		// Reference: start each element at bias, add terms in k order.
		want := bias.Clone()
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < b.Cols; j++ {
				s := want.At(i, j)
				for k := 0; k < a.Cols; k++ {
					if a.At(i, k) == 0 {
						continue
					}
					s += a.At(i, k) * b.At(k, j)
				}
				want.Set(i, j, s)
			}
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("AccumMatMul bias element %d: %v vs %v", i, got.Data[i], want.Data[i])
			}
		}

		// b is MulABTBias's packed operand: the product is a·b. dst
		// starts out holding the whole bias matrix, which must not leak
		// into the result.
		row := bias.Data[:b.Cols]
		got2 := bias.Clone()
		MulABTBias(got2, a, b, row)
		want2 := NewMatrix(a.Rows, b.Cols)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < b.Cols; j++ {
				s := row[j]
				for k := 0; k < a.Cols; k++ {
					s += a.At(i, k) * b.At(k, j)
				}
				want2.Set(i, j, s)
			}
		}
		for i := range want2.Data {
			if math.Float64bits(got2.Data[i]) != math.Float64bits(want2.Data[i]) {
				t.Fatalf("MulABTBias element %d: %v vs %v", i, got2.Data[i], want2.Data[i])
			}
		}
	})
}

func matrixApproxEqual(t *testing.T, op string, got, want *Matrix, tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s shape %dx%d, want %dx%d", op, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		d := math.Abs(got.Data[i] - want.Data[i])
		if d > tol*(1+math.Abs(want.Data[i])) {
			t.Fatalf("%s element %d: got %v want %v (|Δ| %v)", op, i, got.Data[i], want.Data[i], d)
		}
	}
}

func TestKernelShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(4, 2)
	for name, fn := range map[string]func(){
		"AccumMatMul-inner": func() { AccumMatMul(NewMatrix(2, 2), a, b) },
		"AccumMatMul-dst":   func() { AccumMatMul(NewMatrix(1, 1), a, NewMatrix(3, 2)) },
		"MulABTBias-inner":  func() { MulABTBias(NewMatrix(2, 4), a, b, make([]float64, 4)) },
		"AccumMulATB-outer": func() { AccumMulATB(NewMatrix(3, 2), a, b) },
		"MulABTBias-bias":   func() { MulABTBias(NewMatrix(2, 2), a, NewMatrix(3, 2), make([]float64, 3)) },
		"AccumColSums-dst":  func() { AccumColSums(make([]float64, 2), a) },
		"MulTanhDeriv-len":  func() { MulTanhDeriv(make([]float64, 5), make([]float64, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on shape mismatch", name)
				}
			}()
			fn()
		}()
	}
}

// TestQRWorkspaceMatchesQRFactor pins the in-place factorisation and
// solve to the allocating path bit-for-bit, and checks the workspace is
// allocation-free once warmed.
func TestQRWorkspaceMatchesQRFactor(t *testing.T) {
	src := xrand.New(44)
	var ws QRWorkspace
	for _, sh := range [][2]int{{6, 3}, {40, 7}, {9, 9}, {100, 12}} {
		a := randomMatrix(src, sh[0], sh[1])
		b := make([]float64, sh[0])
		for i := range b {
			b[i] = src.Normal(0, 1)
		}
		qr, err := QRFactor(a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := qr.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, sh[1])
		if err := ws.LeastSquares(a, b, x); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if x[i] != want[i] {
				t.Fatalf("shape %v: workspace solution[%d] = %v, QR.Solve = %v", sh, i, x[i], want[i])
			}
		}
		if ws.fact.Rows != qr.fact.Rows || ws.fact.Cols != qr.fact.Cols {
			t.Fatalf("workspace factor shape mismatch")
		}
		for i := range qr.fact.Data {
			if ws.fact.Data[i] != qr.fact.Data[i] {
				t.Fatalf("shape %v: factor element %d differs", sh, i)
			}
		}
	}
	// Warmed reuse on the largest shape performs zero allocations.
	a := randomMatrix(src, 100, 12)
	b := make([]float64, 100)
	x := make([]float64, 12)
	if err := ws.LeastSquares(a, b, x); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := ws.LeastSquares(a, b, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed QRWorkspace.LeastSquares allocates %v/op, want 0", allocs)
	}
}

func TestQRWorkspaceErrors(t *testing.T) {
	var ws QRWorkspace
	if err := ws.Factorize(NewMatrix(2, 3)); err == nil {
		t.Fatal("wide matrix accepted")
	}
	a := NewMatrix(4, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	if err := ws.Factorize(a); err != nil {
		t.Fatal(err)
	}
	if err := ws.Solve(make([]float64, 3), make([]float64, 2)); err == nil {
		t.Fatal("short rhs accepted")
	}
	if err := ws.Solve(make([]float64, 4), make([]float64, 1)); err == nil {
		t.Fatal("short solution accepted")
	}
}

// TestQRWorkspaceRidgeFallback checks the singular path matches
// LeastSquares' ridge fallback.
func TestQRWorkspaceRidgeFallback(t *testing.T) {
	// Rank-deficient: duplicate column.
	a := NewMatrix(5, 2)
	for i := 0; i < 5; i++ {
		a.Set(i, 0, float64(i+1))
		a.Set(i, 1, float64(i+1))
	}
	b := []float64{2, 4, 6, 8, 10}
	want, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var ws QRWorkspace
	x := make([]float64, 2)
	if err := ws.LeastSquares(a, b, x); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("ridge fallback[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestScalAndAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	Scal(2, x)
	if x[0] != 2 || x[1] != 4 || x[2] != 6 {
		t.Fatalf("Scal: %v", x)
	}
	y := []float64{1, 1, 1}
	AXPY(0.5, x, y)
	if y[0] != 2 || y[1] != 3 || y[2] != 4 {
		t.Fatalf("AXPY: %v", y)
	}
}
