//go:build !amd64

package linalg

// No kernel runs off amd64: every entry point takes its Go loop.
var cpuAVX2, cpuFMA = false, false

func tanhKernel([]float64) { panic("linalg: no tanh kernel on this architecture") }

func abAVX2(dst, a, b *float64, rows, n, k int) {
	panic("linalg: no matrix kernel on this architecture")
}

func rank1AVX2(dst, a, src *float64, outer, inner, dO, dQ, sO, sQ, k int) {
	panic("linalg: no matrix kernel on this architecture")
}
