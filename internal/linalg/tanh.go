package linalg

import (
	_ "embed"
	"math"
	"strconv"
	"strings"
)

// Tanh replaces every element of v with math.Tanh of it, bit for bit. It
// is the activation of every hidden layer the predictor evaluates or
// trains. On amd64 with AVX2 and FMA it runs a kernel over four lanes at a
// time that does exactly math.Tanh's arithmetic — math.Exp's FMA sequence,
// then tanh's two paths and its saturation — and math.Tanh for the last
// len(v)%4 elements. The kernel is chosen once, at package init, and only
// when it and math.Tanh give every input of a fixed probe table its
// recorded result; everywhere else Tanh is a math.Tanh loop.
func Tanh(v []float64) {
	n := 0
	if useTanhKernel {
		n = len(v) &^ 3
		tanhKernel(v[:n])
	}
	for i, x := range v[n:] {
		v[n+i] = math.Tanh(x)
	}
}

// useTanhKernel selects the packed kernel. Tests clear it to force the
// math.Tanh loop.
var useTanhKernel = cpuFMA && tanhProbeHolds(tanhKernel)

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
// probe input its recorded result.
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
