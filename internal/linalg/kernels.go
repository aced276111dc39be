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
package linalg

import "fmt"

// kernelBlock is the cache-block edge for the blocked GEMM outer loops.
// 64 rows/cols of float64 keep the working tiles (3 × 64×64 × 8 B ≈ 96 KiB
// upper bound, far less at this repo's layer widths) inside L2 while being
// large enough that blocking overhead vanishes for the small matrices the
// modeling pipeline produces.
const kernelBlock = 64

func dims(op string, ok bool, format string, args ...any) {
	if !ok {
		panic(fmt.Sprintf("linalg: %s %s", op, fmt.Sprintf(format, args...)))
	}
}

// AccumMatMul computes dst += a·b without allocating: the blocked i-k-j
// GEMM. Per destination element the additions arrive in ascending k order
// (zero a-elements are skipped), so accumulating on
// top of a caller-initialised dst — e.g. a broadcast bias row — reproduces
// the scalar "start at bias, add terms in order" sum bit-for-bit.
func AccumMatMul(dst, a, b *Matrix) {
	dims("AccumMatMul", a.Cols == b.Rows, "dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	dims("AccumMatMul", dst.Rows == a.Rows && dst.Cols == b.Cols, "dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols)
	n, k := a.Cols, b.Cols
	for i0 := 0; i0 < a.Rows; i0 += kernelBlock {
		i1 := min(i0+kernelBlock, a.Rows)
		for p0 := 0; p0 < n; p0 += kernelBlock {
			p1 := min(p0+kernelBlock, n)
			for i := i0; i < i1; i++ {
				ai := a.Data[i*n : (i+1)*n]
				di := dst.Data[i*k : (i+1)*k]
				for p := p0; p < p1; p++ {
					aip := ai[p]
					if aip == 0 {
						continue
					}
					bp := b.Data[p*k : (p+1)*k]
					for j, bpj := range bp {
						di[j] += aip * bpj
					}
				}
			}
		}
	}
}

// AccumMulABT computes dst += a·bᵀ without allocating. Each dst element
// receives its k terms in ascending order, on top of whatever the caller
// stored there (zero for a plain product, a bias for a dense layer).
func AccumMulABT(dst, a, b *Matrix) {
	dims("AccumMulABT", a.Cols == b.Cols, "inner dimension mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols)
	dims("AccumMulABT", dst.Rows == a.Rows && dst.Cols == b.Rows, "dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows)
	n := a.Cols
	for i0 := 0; i0 < a.Rows; i0 += kernelBlock {
		i1 := min(i0+kernelBlock, a.Rows)
		for j0 := 0; j0 < b.Rows; j0 += kernelBlock {
			j1 := min(j0+kernelBlock, b.Rows)
			for i := i0; i < i1; i++ {
				ai := a.Data[i*n : (i+1)*n]
				di := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
				// Four dst elements at a time: each keeps its own
				// accumulator fed in ascending p, so the per-element
				// addition order is untouched while one streaming pass
				// over ai feeds four b rows (ILP, fewer loop trips).
				j := j0
				for ; j+4 <= j1; j += 4 {
					b0 := b.Data[j*n : (j+1)*n][:len(ai)]
					b1 := b.Data[(j+1)*n : (j+2)*n][:len(ai)]
					b2 := b.Data[(j+2)*n : (j+3)*n][:len(ai)]
					b3 := b.Data[(j+3)*n : (j+4)*n][:len(ai)]
					s0, s1, s2, s3 := di[j], di[j+1], di[j+2], di[j+3]
					for p, av := range ai {
						s0 += av * b0[p]
						s1 += av * b1[p]
						s2 += av * b2[p]
						s3 += av * b3[p]
					}
					di[j], di[j+1], di[j+2], di[j+3] = s0, s1, s2, s3
				}
				for ; j < j1; j++ {
					bj := b.Data[j*n : (j+1)*n][:len(ai)]
					s := di[j]
					for p, av := range ai {
						s += av * bj[p]
					}
					di[j] = s
				}
			}
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
	dims("AccumMulATB", a.Rows == b.Rows, "outer dimension mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	dims("AccumMulATB", dst.Rows == a.Cols && dst.Cols == b.Cols, "dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols)
	n, k := a.Cols, b.Cols
	for s := 0; s < a.Rows; s++ {
		as := a.Data[s*n : (s+1)*n]
		bs := b.Data[s*k : (s+1)*k]
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
			d0 := dst.Data[i*k : (i+1)*k][:len(bs)]
			d1 := dst.Data[(i+1)*k : (i+2)*k][:len(bs)]
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
			di := dst.Data[i*k : (i+1)*k][:len(bs)]
			for j, bv := range bs {
				di[j] += av * bv
			}
		}
	}
}

// Scal scales x in place: x ← alpha·x.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}
