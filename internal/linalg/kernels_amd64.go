package linalg

// abAVX2 adds a·b to dst over dst's first k&^3 columns: dst is rows×k,
// a rows×n, b n×k, all row-major, with rows ≥ 1, n ≥ 1 and k ≥ 4. Each
// dst element takes its n terms in ascending order. It is in
// kernels_amd64.s.
//
//go:noescape
func abAVX2(dst, a, b *float64, rows, n, k int)

// rank1AVX2 applies outer×inner rank-1 row updates over the first k&^3
// columns, taking the broadcasts from a in order: for o < outer, q <
// inner, with av = a[o*inner+q] not zero,
//
//	dst[o*dO+q*dQ:][:k&^3] += av · src[o*sO+q*sQ:][:k&^3]
//
// with outer, inner ≥ 1 and k ≥ 4. It is in kernels_amd64.s.
//
//go:noescape
func rank1AVX2(dst, a, src *float64, outer, inner, dO, dQ, sO, sQ, k int)
