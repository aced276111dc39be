// The linear model's inference kernel. It follows the same
// reproducibility contract as the products in kernels.go — every
// destination element accumulates its terms in strictly ascending inner
// index order — so a compiled batched prediction is bit-for-bit equal to
// the scalar predict loop it replaces. The neural model's one-node output
// layer runs on it too.

package linalg

// GemvBiasInto computes out[i] = bias + Σ_j x[i][j]·coef[j] for every row
// of x without allocating: the fused "linear model folded to a single dot
// product" kernel. Rows are processed four at a time, each row keeping its
// own accumulator fed in ascending j order, so every out[i] is
// bit-identical to the naive "start at the bias, add terms in feature
// order" scalar sum (linreg.Model.Predict).
func GemvBiasInto(out []float64, x *Matrix, coef []float64, bias float64) {
	// Shape checks guard *before* calling dims: boxing batch-sized ints
	// into dims' variadic any on the happy path is the predict loop's only
	// allocation (ints above 255 aren't preboxed by the runtime).
	if x.Cols != len(coef) {
		dims("GemvBiasInto", false, "matrix has %d columns for %d coefficients", x.Cols, len(coef))
	}
	if len(out) != x.Rows {
		dims("GemvBiasInto", false, "out length %d for %d rows", len(out), x.Rows)
	}
	n := x.Cols
	i := 0
	for ; i+4 <= x.Rows; i += 4 {
		r0 := x.Data[i*n : (i+1)*n][:len(coef)]
		r1 := x.Data[(i+1)*n : (i+2)*n][:len(coef)]
		r2 := x.Data[(i+2)*n : (i+3)*n][:len(coef)]
		r3 := x.Data[(i+3)*n : (i+4)*n][:len(coef)]
		s0, s1, s2, s3 := bias, bias, bias, bias
		for j, c := range coef {
			s0 += c * r0[j]
			s1 += c * r1[j]
			s2 += c * r2[j]
			s3 += c * r3[j]
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < x.Rows; i++ {
		ri := x.Data[i*n : (i+1)*n][:len(coef)]
		s := bias
		for j, c := range coef {
			s += c * ri[j]
		}
		out[i] = s
	}
}
