package linalg

// The matrix kernels, in kernels_amd64.s. Each runs over the first k&^3
// columns of its destination, with k ≥ 4 and every other count ≥ 1, all
// matrices row-major.

// abAVX2 sets dst to a·b plus bias in every row: dst is rows×k, a
// rows×n, b n×k, bias k long. Each dst element starts at bias's element
// in its column and takes its n terms in ascending order.
//
//go:noescape
func abAVX2(dst, bias, a, b *float64, rows, n, k int)

// abAVX512 is abAVX2 eight columns to a register: it runs over the same
// k&^3 columns, the last four in a 4-column chunk when k&4 is set.
//
//go:noescape
func abAVX512(dst, bias, a, b *float64, rows, n, k int)

// rank1AVX2 adds a·b to dst: dst is rows×k, a rows×n, b n×k. Each dst
// element takes its n terms in ascending order, skipping the terms whose
// a element is zero.
//
//go:noescape
func rank1AVX2(dst, a, b *float64, rows, n, k int)

// atbAVX2 adds aᵀ·b to dst: dst is n×k, a rows×n, b rows×k. Each dst
// element takes its rows terms in ascending order, skipping the terms
// whose a element is zero.
//
//go:noescape
func atbAVX2(dst, a, b *float64, rows, n, k int)

// colSumsAVX2 adds the rows of a (rows×k) into dst in ascending order,
// skipping zero terms.
//
//go:noescape
func colSumsAVX2(dst, a *float64, rows, k int)

// tanhDerivAVX2 multiplies d[i] by 1 - y[i]·y[i] for i < n, a multiple
// of 4.
//
//go:noescape
func tanhDerivAVX2(d, y *float64, n int)
