// Batched, allocation-free dense kernels. The training and batch-inference
// hot paths (internal/mlp, internal/linreg) evaluate one GEMM per network
// layer over a whole sample matrix instead of looping sample-at-a-time, and
// they reuse caller-provided destination storage so a warmed training
// iteration performs zero heap allocations.
//
// Reproducibility contract: every kernel accumulates each destination
// element in strictly ascending inner-index order (k for A·B and A·Bᵀ, the
// shared row index for Aᵀ·B). Cache blocking only re-tiles the *outer*
// loops, so the sequence of floating-point additions applied to any single
// dst element is identical to the naive triple loop — results are
// bit-for-bit equal to the scalar reference implementations, which is what
// keeps the paper's Figures 1–4 outputs unchanged by the batched rewrite.
// The AVX2 kernels (kernels_amd64.s) keep the contract the same way: they
// run four dst columns per register, and a column's sum is untouched by
// which other columns share its register. MulABTBias's AVX-512 kernel
// runs eight to a register on the same terms, so each tier — eight
// lanes, four, or the Go loop — gives every element the same bits.
package linalg

import "fmt"

// kernelBlock is the cache-block edge for the blocked GEMM outer loops.
// 64 rows/cols of float64 keep the working tiles (3 × 64×64 × 8 B ≈ 96 KiB
// upper bound, far less at this repo's layer widths) inside L2 while being
// large enough that blocking overhead vanishes for the small matrices the
// modeling pipeline produces.
const kernelBlock = 64

// useMatKernel selects the AVX2 kernels (kernels_amd64.s) for the
// products, AccumColSums and MulTanhDeriv, once, at init:
// when the CPU runs AVX2 and the OS saves the YMM registers. Columns past
// the last group of four, and every entry point while it is false, take
// the Go loops below. useMat512 selects, within them, MulABTBias's
// 8-column AVX-512 kernel: when the CPU also runs AVX512F and the OS
// saves the opmask and ZMM registers. Tests clear useMat512 to force the
// 4-column kernels, and useMatKernel to force the Go loops.
var useMatKernel = cpuAVX2

var useMat512 = cpuAVX512

func dims(op string, ok bool, format string, args ...any) {
	if !ok {
		panic(fmt.Sprintf("linalg: %s %s", op, fmt.Sprintf(format, args...)))
	}
}

// checkData panics unless every matrix holds the elements its shape
// names: the kernels read and write by shape, not by slice bounds.
func checkData(op string, dst, a, b *Matrix) {
	if len(dst.Data) < dst.Rows*dst.Cols || len(a.Data) < a.Rows*a.Cols || len(b.Data) < b.Rows*b.Cols {
		dims(op, false, "matrix data shorter than its shape")
	}
}

// AccumMatMul computes dst += a·b without allocating. Per destination
// element the additions arrive in ascending k order (zero a-elements are
// skipped), so accumulating on top of a caller-initialised dst — e.g. a
// broadcast bias row — reproduces the scalar "start at bias, add terms
// in order" sum bit-for-bit.
func AccumMatMul(dst, a, b *Matrix) {
	// Shape checks guard *before* calling dims: boxing its arguments into
	// dims' variadic any allocates for ints above 255.
	if a.Cols != b.Rows {
		dims("AccumMatMul", false, "dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		dims("AccumMatMul", false, "dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols)
	}
	checkData("AccumMatMul", dst, a, b)
	n, k := a.Cols, b.Cols
	j0 := 0
	if useMatKernel && k >= 4 && a.Rows > 0 && n > 0 {
		rank1AVX2(&dst.Data[0], &a.Data[0], &b.Data[0], a.Rows, n, k)
		j0 = k &^ 3
	}
	accumMatMulGo(dst, a, b, j0)
}

// accumMatMulGo is AccumMatMul's Go loop over dst columns j0 onwards:
// the blocked i-k-j GEMM.
func accumMatMulGo(dst, a, b *Matrix, j0 int) {
	n, k := a.Cols, b.Cols
	if j0 == k {
		return
	}
	for i0 := 0; i0 < a.Rows; i0 += kernelBlock {
		i1 := min(i0+kernelBlock, a.Rows)
		for p0 := 0; p0 < n; p0 += kernelBlock {
			p1 := min(p0+kernelBlock, n)
			for i := i0; i < i1; i++ {
				ai := a.Data[i*n : (i+1)*n]
				di := dst.Data[i*k+j0 : (i+1)*k]
				for p := p0; p < p1; p++ {
					aip := ai[p]
					if aip == 0 {
						continue
					}
					bp := b.Data[p*k+j0 : (p+1)*k]
					for j, bpj := range bp {
						di[j] += aip * bpj
					}
				}
			}
		}
	}
}

// MulABTBias sets dst to a·bᵀ with bias added to every row: a dense
// layer's pre-activations. b is passed packed: bt is bᵀ (a.Cols ×
// dst.Cols), so a dense layer's out × in weights are transposed once — at
// compile time, or once per training iteration — and every product reads
// them as contiguous rows. Each dst element starts at its column's bias
// and receives its a.Cols terms in ascending order; no term is skipped.
// dst's previous contents are not read.
func MulABTBias(dst, a, bt *Matrix, bias []float64) {
	if len(bias) != dst.Cols {
		dims("MulABTBias", false, "bias length %d for %d columns", len(bias), dst.Cols)
	}
	if a.Cols != bt.Rows {
		dims("MulABTBias", false, "inner dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, bt.Rows, bt.Cols)
	}
	if dst.Rows != a.Rows || dst.Cols != bt.Cols {
		dims("MulABTBias", false, "dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, bt.Cols)
	}
	checkData("MulABTBias", dst, a, bt)
	k := dst.Cols
	j0 := 0
	if useMatKernel && k >= 4 && a.Rows > 0 && a.Cols > 0 {
		if useMat512 {
			abAVX512(&dst.Data[0], &bias[0], &a.Data[0], &bt.Data[0], a.Rows, a.Cols, k)
		} else {
			abAVX2(&dst.Data[0], &bias[0], &a.Data[0], &bt.Data[0], a.Rows, a.Cols, k)
		}
		j0 = k &^ 3
	}
	if j0 == k {
		return
	}
	for i := 0; i < dst.Rows; i++ {
		copy(dst.Data[i*k+j0:(i+1)*k], bias[j0:])
	}
	accumMulABTGo(dst, a, bt, j0)
}

// accumMulABTGo is MulABTBias's Go loop over dst columns j0 onwards,
// which hold the bias: four dst elements at a time, each with its own
// accumulator fed in ascending p, then one at a time.
func accumMulABTGo(dst, a, bt *Matrix, j0 int) {
	n, k := a.Cols, bt.Cols
	if j0 == k {
		return
	}
	for i := 0; i < a.Rows; i++ {
		ai := a.Data[i*n : (i+1)*n]
		di := dst.Data[i*k : (i+1)*k]
		j := j0
		for ; j+4 <= k; j += 4 {
			s0, s1, s2, s3 := di[j], di[j+1], di[j+2], di[j+3]
			for p, av := range ai {
				bp := bt.Data[p*k+j : p*k+j+4]
				s0 += av * bp[0]
				s1 += av * bp[1]
				s2 += av * bp[2]
				s3 += av * bp[3]
			}
			di[j], di[j+1], di[j+2], di[j+3] = s0, s1, s2, s3
		}
		for ; j < k; j++ {
			s := di[j]
			for p, av := range ai {
				s += av * bt.Data[p*k+j]
			}
			di[j] = s
		}
	}
}

// AccumMulATB computes dst += aᵀ·b without allocating: the rank-1-update
// formulation dst[i][j] += Σ_s a[s][i]·b[s][j] with s ascending. This is
// exactly the order a sample-at-a-time gradient accumulation applies its
// per-sample outer products in (zero a-elements skipped, as the scalar
// backward pass skips zero deltas), so batched gradient accumulation is
// bit-identical to the per-sample loop.
func AccumMulATB(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		dims("AccumMulATB", false, "outer dimension mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		dims("AccumMulATB", false, "dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols)
	}
	checkData("AccumMulATB", dst, a, b)
	n, k := a.Cols, b.Cols
	j0 := 0
	if useMatKernel && k >= 4 && a.Rows > 0 && n > 0 {
		atbAVX2(&dst.Data[0], &a.Data[0], &b.Data[0], a.Rows, n, k)
		j0 = k &^ 3
	}
	accumMulATBGo(dst, a, b, j0)
}

// accumMulATBGo is AccumMulATB's Go loop over dst columns j0 onwards.
func accumMulATBGo(dst, a, b *Matrix, j0 int) {
	n, k := a.Cols, b.Cols
	if j0 == k {
		return
	}
	for s := 0; s < a.Rows; s++ {
		as := a.Data[s*n : (s+1)*n]
		bs := b.Data[s*k+j0 : (s+1)*k]
		// Two dst rows per pass over bs. Within one rank-1 update the
		// touched dst elements are all distinct, so pairing rows changes
		// no per-element addition order; the zero skip still applies per
		// left element exactly as in the scalar loop.
		i := 0
		for ; i+2 <= n; i += 2 {
			av0, av1 := as[i], as[i+1]
			if av0 == 0 && av1 == 0 {
				continue
			}
			d0 := dst.Data[i*k+j0 : (i+1)*k][:len(bs)]
			d1 := dst.Data[(i+1)*k+j0 : (i+2)*k][:len(bs)]
			switch {
			case av0 != 0 && av1 != 0:
				for j, bv := range bs {
					d0[j] += av0 * bv
					d1[j] += av1 * bv
				}
			case av0 != 0:
				for j, bv := range bs {
					d0[j] += av0 * bv
				}
			default:
				for j, bv := range bs {
					d1[j] += av1 * bv
				}
			}
		}
		for ; i < n; i++ {
			av := as[i]
			if av == 0 {
				continue
			}
			di := dst.Data[i*k+j0 : (i+1)*k][:len(bs)]
			for j, bv := range bs {
				di[j] += av * bv
			}
		}
	}
}

// AccumColSums adds the rows of a into dst without allocating: dst[j] +=
// Σ_s a[s][j] with s ascending, zero terms skipped. This is the order a
// sample-at-a-time loop accumulates a dense layer's bias gradient in, so
// the batched sum is bit-identical to it.
func AccumColSums(dst []float64, a *Matrix) {
	if len(dst) != a.Cols {
		dims("AccumColSums", false, "dst length %d for %d columns", len(dst), a.Cols)
	}
	if len(a.Data) < a.Rows*a.Cols {
		dims("AccumColSums", false, "matrix data shorter than its shape")
	}
	k := a.Cols
	j0 := 0
	if useMatKernel && k >= 4 && a.Rows > 0 {
		colSumsAVX2(&dst[0], &a.Data[0], a.Rows, k)
		j0 = k &^ 3
	}
	if j0 == k {
		return
	}
	d := dst[j0:k]
	for s := 0; s < a.Rows; s++ {
		for j, v := range a.Data[s*k+j0 : (s+1)*k] {
			if v == 0 {
				continue
			}
			d[j] += v
		}
	}
}

// MulTanhDeriv multiplies every dst[i] by tanh's derivative at the
// output y[i], dst[i] *= 1 - y[i]·y[i], each operation rounded on its
// own: backpropagation through a tanh layer.
func MulTanhDeriv(dst, y []float64) {
	if len(dst) != len(y) {
		dims("MulTanhDeriv", false, "dst length %d for %d outputs", len(dst), len(y))
	}
	n := 0
	if useMatKernel && len(y) >= 4 {
		n = len(y) &^ 3
		tanhDerivAVX2(&dst[0], &y[0], n)
	}
	d := dst[n:]
	for i, v := range y[n:] {
		d[i] *= 1 - v*v
	}
}

// Scal scales x in place: x ← alpha·x.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}
