//go:build !amd64

package linalg

// No kernel runs off amd64: every entry point takes its Go loop.
var cpuAVX2, cpuFMA, cpuAVX512 = false, false, false

func tanh4([]float64) { panic("linalg: no tanh kernel on this architecture") }

func tanh8([]float64) { panic("linalg: no tanh kernel on this architecture") }

func abAVX2(dst, bias, a, b *float64, rows, n, k int) { panic(noMatKernel) }

func abAVX512(dst, bias, a, b *float64, rows, n, k int) { panic(noMatKernel) }

func rank1AVX2(dst, a, b *float64, rows, n, k int) { panic(noMatKernel) }

func atbAVX2(dst, a, b *float64, rows, n, k int) { panic(noMatKernel) }

func colSumsAVX2(dst, a *float64, rows, k int) { panic(noMatKernel) }

func tanhDerivAVX2(d, y *float64, n int) { panic(noMatKernel) }

const noMatKernel = "linalg: no matrix kernel on this architecture"
