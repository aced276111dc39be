//go:build !amd64

package linalg

func tanhKernelCPU() bool { return false }

func tanhKernel([]float64) { panic("linalg: no tanh kernel on this architecture") }
