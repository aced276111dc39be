package linalg

import (
	"math"
	"testing"

	"colocmodel/internal/xrand"
)

// tanhTiers lists the tiers Tanh selects among on this host.
func tanhTiers() []tier { return tiers(useTanhKernel, useTanh512, "fallback") }

// tanhPaths runs f once per implementation Tanh can take on this host:
// the 8-lane and 4-lane kernels where init selected them, and the
// math.Tanh loop.
func tanhPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	logTiers(t, "tanh", useTanhKernel, useTanh512)
	for _, tr := range tanhTiers() {
		t.Run(tr.name, func(t *testing.T) {
			t.Cleanup(tr.set(&useTanhKernel, &useTanh512))
			f(t)
		})
	}
}

// checkTanh runs Tanh over a copy of in and fails on every element whose
// bits differ from math.Tanh's (any NaN matches any NaN).
func checkTanh(t *testing.T, in []float64) {
	t.Helper()
	got := append([]float64(nil), in...)
	Tanh(got)
	bad := 0
	for i, x := range in {
		if want := math.Tanh(x); !sameFloat(got[i], want) {
			if bad++; bad <= 10 {
				t.Errorf("Tanh(%v) [%#016x] at %d of %d = %v [%#016x], math.Tanh %v [%#016x]",
					x, math.Float64bits(x), i, len(in), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}
	if bad > 10 {
		t.Errorf("%d of %d elements differ", bad, len(in))
	}
}

// tanhSpecials are the inputs where math.Tanh changes branch or returns
// a value of its own.
func tanhSpecials() []float64 {
	const sat = 0.5 * 8.8029691931113054295988e+01
	var out []float64
	for _, x := range []float64{0, 0.625, sat, 1, 0.5, 2, 20, 5e-324, math.SmallestNonzeroFloat64 * 1e10, 1e-300, math.MaxFloat64, math.Inf(1)} {
		for _, y := range []float64{x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1))} {
			out = append(out, y, -y)
		}
	}
	return append(out, math.NaN(), -math.NaN(), math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000123))
}

func TestTanhMatchesMath(t *testing.T) {
	tanhPaths(t, func(t *testing.T) {
		src := xrand.New(35)
		for n := 0; n <= 17; n++ {
			v := make([]float64, n)
			for i := range v {
				v[i] = src.Normal(0, 2)
			}
			checkTanh(t, v)
		}
		buf := make([]float64, 65)
		for i := range buf {
			buf[i] = -3 + 6*src.Float64()
		}
		checkTanh(t, buf[1:]) // not 32-byte aligned
		checkTanh(t, tanhSpecials())

		const draws = 1 << 20
		v := make([]float64, draws)
		for _, d := range []struct {
			name string
			draw func() float64
		}{
			{"normal", func() float64 { return src.Normal(0, 2) }},
			{"uniform50", func() float64 { return -50 + 100*src.Float64() }},
			{"uniform07", func() float64 { return -0.7 + 1.4*src.Float64() }},
			{"bits", func() float64 { return math.Float64frombits(src.Uint64()) }},
		} {
			t.Run(d.name, func(t *testing.T) {
				for i := range v {
					v[i] = d.draw()
				}
				checkTanh(t, v)
			})
		}
	})
}

func FuzzTanh(f *testing.F) {
	f.Add(0.0, 0.625, -1.00544675498034, 44.014845965556527, 3.0)
	f.Add(math.Copysign(0, -1), math.Inf(1), math.NaN(), 5e-324, -0.3624600956066068)
	f.Add(-20.0, 0.6249999999999999, 1e-300, -4.647840439692726, 0.1)
	logTiers(f, "tanh", useTanhKernel, useTanh512)
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		// Eight lanes, four lanes, then the tail: each value in several
		// lanes, under every tier this host runs.
		for _, tr := range tanhTiers() {
			restore := tr.set(&useTanhKernel, &useTanh512)
			checkTanh(t, []float64{a, b, c, d, e, a, b, c, d, e, a, b, c})
			restore()
			if t.Failed() {
				t.Fatalf("on the %s tier", tr.name)
			}
		}
	})
}

// The two arithmetic sequences the probe must tell apart, rounded step by
// step: math.Exp's amd64 FMA sequence (exp_amd64.s, avxfma branch, with
// math.FMA standing in for each fused instruction) and its non-FMA one.
// float64() around a product keeps the compiler from fusing it.

var expPoly = [...]float64{2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1}

func expSeq(x float64, fma bool) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2u  = 0.69314718055966295651160180568695068359375
		ln2l  = 0.28235290563031577122588448175013436025525412068e-12
	)
	k := math.RoundToEven(float64(x * log2e))
	if fma {
		x = math.FMA(-k, ln2u, x)
		x = math.FMA(-k, ln2l, x)
	} else {
		x -= float64(k * ln2u)
		x -= float64(k * ln2l)
	}
	x *= 0.0625
	p := expPoly[0]
	for _, c := range expPoly[1:] {
		if fma {
			p = math.FMA(p, x, c)
		} else {
			p = float64(p*x) + c
		}
	}
	x *= p
	for range 3 {
		x *= x + 2
	}
	if fma {
		x = math.FMA(x, x+2, 1)
	} else {
		x = float64(x*(x+2)) + 1
	}
	return x * math.Float64frombits(uint64(int64(k)+0x3FF)<<52)
}

// tanhSeq is math/tanh.go over expSeq, its P/Q rational unfused or fused.
func tanhSeq(x float64, fmaExp, fusedPQ bool) float64 {
	p := [...]float64{-9.64399179425052238628e-1, -9.92877231001918586564e1, -1.61468768441708447952e3}
	q := [...]float64{1.12811678491632931402e2, 2.23548839060100448583e3, 4.84406305325125486048e3}
	z := math.Abs(x)
	switch {
	case z > 0.5*8.8029691931113054295988e+01:
		return math.Copysign(1, x)
	case z >= 0.625:
		return math.Copysign(1-2/(expSeq(2*z, fmaExp)+1), x)
	case x == 0:
		return x
	}
	s := x * x
	var num, den float64
	if fusedPQ {
		num = math.FMA(math.FMA(p[0], s, p[1]), s, p[2])
		den = math.FMA(math.FMA(s+q[0], s, q[1]), s, q[2])
	} else {
		num = float64(float64(float64(p[0]*s)+p[1])*s) + p[2]
		den = float64(float64(float64(float64(s+q[0])*s)+q[1])*s) + q[2]
	}
	return x + float64(float64(x*s)*num)/den
}

// TestTanhProbeSeesNonFMAExp shows the probe can turn the kernel off on
// a host whose math.Exp rounds another way: the table's results are the
// FMA sequence's on every row, and the non-FMA sequence (and a fused P/Q
// rational) misses at least one of them.
func TestTanhProbeSeesNonFMAExp(t *testing.T) {
	in, want := tanhProbeRows()
	if len(in) == 0 || len(in)%8 != 0 {
		t.Fatalf("probe has %d rows; want a positive multiple of 8, so each runs in a lane of either kernel", len(in))
	}
	noFMA, fusedPQ, mathMisses := 0, 0, 0
	for i, x := range in {
		if !sameFloat(math.Tanh(x), want[i]) {
			mathMisses++
		}
		if got := tanhSeq(x, true, false); !sameFloat(got, want[i]) {
			t.Errorf("probe row %d: FMA sequence gives tanh(%v) = %#016x, table %#016x",
				i, x, math.Float64bits(got), math.Float64bits(want[i]))
		}
		if !sameFloat(tanhSeq(x, false, false), want[i]) {
			noFMA++
		}
		if !sameFloat(tanhSeq(x, true, true), want[i]) {
			fusedPQ++
		}
	}
	if noFMA == 0 {
		t.Error("no probe row tells the non-FMA math.Exp sequence from the FMA one")
	}
	if fusedPQ == 0 {
		t.Error("no probe row tells a fused P/Q rational from math's unfused one")
	}
	if mathMisses > 0 && (useTanhKernel || useTanh512) {
		t.Errorf("math.Tanh misses %d probe rows on this host, yet a kernel is selected (4-lane %v, 8-lane %v)",
			mathMisses, useTanhKernel, useTanh512)
	}
	if mathMisses == 0 && cpuFMA && !useTanhKernel {
		t.Error("the CPU runs the kernel and math.Tanh meets the probe, yet the kernel misses it")
	}
	if mathMisses == 0 && cpuFMA && cpuAVX512 && !useTanh512 {
		t.Error("the CPU runs the 8-lane kernel and math.Tanh meets the probe, yet the 8-lane kernel misses it")
	}
	t.Logf("%d rows: %d differ under non-FMA exp, %d under a fused rational, %d under this host's math.Tanh; kernel selected: %v, 8-lane: %v",
		len(in), noFMA, fusedPQ, mathMisses, useTanhKernel, useTanh512)
}

// BenchmarkTanh times Tanh over a training pass's hidden activations
// (1 320 rows × 20 nodes) on each tier this host runs; math is the
// math.Tanh loop.
func BenchmarkTanh(b *testing.B) {
	src := xrand.New(1)
	in := make([]float64, 26400)
	for i := range in {
		in[i] = src.Normal(0, 2)
	}
	v := make([]float64, len(in))
	for _, tr := range tiers(useTanhKernel, useTanh512, "math") {
		b.Run(tr.name, func(b *testing.B) {
			defer tr.set(&useTanhKernel, &useTanh512)()
			for range b.N {
				copy(v, in)
				Tanh(v)
			}
		})
	}
}
