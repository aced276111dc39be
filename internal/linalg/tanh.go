package linalg

import (
	_ "embed"
	"math"
	"strconv"
	"strings"
)

// Tanh replaces every element of v with math.Tanh of it, bit for bit. It
// is the activation of every hidden layer the predictor evaluates or
// trains. On amd64 with AVX2 and FMA it runs a kernel that does exactly
// math.Tanh's arithmetic in every lane — math.Exp's FMA sequence, then
// tanh's two paths and its saturation: eight lanes at a time over the
// first len(v)&^7 elements where the CPU runs AVX512F, then four lanes at
// a time, then math.Tanh for the last len(v)%4 elements. Each tier is
// chosen once, at package init, and only when it and math.Tanh give
// every input of a fixed probe table its recorded result; everywhere
// else Tanh is a math.Tanh loop.
func Tanh(v []float64) {
	n := 0
	if useTanhKernel {
		if useTanh512 {
			n = len(v) &^ 7
			tanh8(v[:n])
		}
		m := len(v) &^ 3
		tanh4(v[n:m])
		n = m
	}
	for i, x := range v[n:] {
		v[n+i] = math.Tanh(x)
	}
}

// useTanhKernel selects the packed kernels, and useTanh512 their 8-lane
// tier within them. Tests clear useTanh512 to force the 4-lane kernel,
// and useTanhKernel to force the math.Tanh loop.
var useTanhKernel = cpuFMA && tanhProbeHolds(tanh4)

var useTanh512 = useTanhKernel && cpuAVX512 && tanhProbeHolds(tanh8)

//go:embed tanh_probe.txt
var tanhProbe string

// tanhProbeRows parses tanhProbe: one input and its math.Tanh per line,
// as float64 bits in hex, after '#' comment lines.
func tanhProbeRows() (in, want []float64) {
	for _, line := range strings.Split(tanhProbe, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		x, err1 := strconv.ParseUint(f[0], 16, 64)
		y, err2 := strconv.ParseUint(f[1], 16, 64)
		if err1 != nil || err2 != nil {
			panic("linalg: malformed tanh probe line: " + line)
		}
		in = append(in, math.Float64frombits(x))
		want = append(want, math.Float64frombits(y))
	}
	return in, want
}

// tanhProbeHolds reports whether kernel and math.Tanh both give every
// probe input its recorded result. The probe's row count is a multiple
// of eight, so every row runs in a lane of either kernel.
func tanhProbeHolds(kernel func([]float64)) bool {
	in, want := tanhProbeRows()
	got := append([]float64(nil), in...)
	kernel(got)
	for i, x := range in {
		if !sameFloat(got[i], want[i]) || !sameFloat(math.Tanh(x), want[i]) {
			return false
		}
	}
	return true
}

// sameFloat is bit equality, with every NaN equal to every other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}
