package linalg

import (
	"math"
	"testing"

	"colocmodel/internal/xrand"
)

// fillNormal fills m with seeded standard-normal values.
func fillNormal(m *Matrix, src *xrand.Source) {
	for i := range m.Data {
		m.Data[i] = src.Normal(0, 1)
	}
}

// TestGemvBiasIntoBitIdentical checks the 4-row blocked dot kernel against
// the naive "start at the bias, add terms in feature order" scalar loop —
// the accumulation order linreg.Model.Predict uses — across shapes that
// exercise every remainder path (rows mod 4 in 0..3, including rows < 4).
func TestGemvBiasIntoBitIdentical(t *testing.T) {
	src := xrand.New(7)
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 15, 64, 101} {
		for _, cols := range []int{1, 2, 3, 8, 14, 33} {
			x := NewMatrix(rows, cols)
			fillNormal(x, src)
			coef := make([]float64, cols)
			for j := range coef {
				coef[j] = src.Normal(0, 1)
			}
			bias := src.Normal(0, 1)

			want := make([]float64, rows)
			for i := 0; i < rows; i++ {
				s := bias
				for j := 0; j < cols; j++ {
					s += coef[j] * x.At(i, j)
				}
				want[i] = s
			}
			got := make([]float64, rows)
			GemvBiasInto(got, x, coef, bias)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("rows=%d cols=%d row %d: got %v want %v (not bit-identical)",
						rows, cols, i, got[i], want[i])
				}
			}
		}
	}
}

func TestGemvBiasIntoPanicsOnBadShapes(t *testing.T) {
	x := NewMatrix(3, 2)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("coef", func() { GemvBiasInto(make([]float64, 3), x, make([]float64, 5), 0) })
	mustPanic("out", func() { GemvBiasInto(make([]float64, 2), x, make([]float64, 2), 0) })
}

// TestAccumMulABTBitIdentical checks the packed A·Bᵀ product, MulABTBias,
// against the naive "start at the column's bias, add terms in ascending p"
// reference, bit for bit, over a dst whose old contents must not leak in.
// Shapes cover every 4-column and 4-row remainder, on the kernel and on
// the Go loop.
func TestAccumMulABTBitIdentical(t *testing.T) {
	matPaths(t, func(t *testing.T) {
		src := xrand.New(11)
		for _, ar := range []int{1, 3, 5, 64, 65} {
			for _, br := range []int{1, 2, 4, 7, 8, 9, 13, 16, 20, 67} {
				for _, n := range []int{1, 3, 8, 21} {
					a := NewMatrix(ar, n)
					b := NewMatrix(br, n)
					fillNormal(a, src)
					fillNormal(b, src)
					bias := NewMatrix(1, br)
					fillNormal(bias, src)

					want := NewMatrix(ar, br)
					for i := 0; i < ar; i++ {
						for j := 0; j < br; j++ {
							s := bias.Data[j]
							for p := 0; p < n; p++ {
								s += a.At(i, p) * b.At(j, p)
							}
							want.Set(i, j, s)
						}
					}
					got := NewMatrix(ar, br)
					fillNormal(got, src)
					MulABTBias(got, a, b.T(), bias.Data)
					for i := range got.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
							t.Fatalf("a=%dx%d b=%dx%d: elem %d: ABT %v, naive %v (not bit-identical)",
								ar, n, br, n, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		}
	})
}

func TestAccumMulABTPanicsOnBadShapes(t *testing.T) {
	a := NewMatrix(2, 3)
	bt := NewMatrix(2, 4)
	dst := NewMatrix(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner dimension mismatch")
		}
	}()
	MulABTBias(dst, a, bt, make([]float64, 4))
}
