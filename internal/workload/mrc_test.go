package workload

import (
	"math"
	"testing"
)

// sameBits reports whether a and b are the same float64, every NaN equal
// to every other.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// catalogueExponents are ±Alpha of every catalogue application: the
// exponents the engine evaluates.
func catalogueExponents() []float64 {
	var ys []float64
	for _, a := range All() {
		ys = append(ys, a.MRC.Alpha, -a.MRC.Alpha)
	}
	return ys
}

func checkPowPlan(t *testing.T, x, y float64) {
	t.Helper()
	pl := newPowPlan(y)
	if got, want := pl.pow(x), math.Pow(x, y); !sameBits(got, want) {
		t.Fatalf("pow plan (%v)^%v = %v (%#x), math.Pow %v (%#x)",
			x, y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// powSeedX are inputs at the edges of the plan's own range and of Pow's
// special cases, plus the pressures the engine sees.
var powSeedX = []float64{
	1, 0.5, 2, 0.999999, 1.000001, 0.1, 0.35, 3.7, 21.3, 640,
	0x1p-500, 0x1p500, 0x1.fffffffffffffp-501, 0x1.0000000000001p500,
	1e-300, 1e300, 5e-324, math.MaxFloat64, 0, math.Inf(1), math.NaN(), -2,
}

// powSeedY cover every branch of the plan: identity, square roots,
// yi = 0 and 1 on either side of Pow's 0.5 shift, and the fallbacks.
var powSeedY = []float64{
	1, -1, 0.5, -0.5, 0.3, -0.3, 0.7, -0.7, 1.4, -1.4, 1.6, -1.6,
	2.5, -3, 0, math.Inf(1), math.NaN(), 1e300,
}

func TestPowPlanMatchesPow(t *testing.T) {
	ys := append(catalogueExponents(), powSeedY...)
	for _, y := range ys {
		for _, x := range powSeedX {
			checkPowPlan(t, x, y)
		}
		// A log-spaced sweep over every positive float64 exponent.
		for e := -1075.0; e <= 1024; e += 0.173 {
			checkPowPlan(t, math.Exp2(e), y)
		}
	}
}

// FuzzPowPlan compares the pow plan with math.Pow bit for bit, for the
// fuzzed exponent and for every catalogue exponent.
func FuzzPowPlan(f *testing.F) {
	for i, x := range powSeedX {
		f.Add(x, powSeedY[i%len(powSeedY)])
	}
	ys := catalogueExponents()
	f.Fuzz(func(t *testing.T, x, y float64) {
		checkPowPlan(t, x, y)
		for _, cy := range ys {
			checkPowPlan(t, x, cy)
		}
	})
}

// refRatio is PowerLawMRC.Ratio as it read before the curve was
// compiled: the specification the compiled curve must reproduce.
func refRatio(m PowerLawMRC, bytes float64) float64 {
	if bytes <= 0 {
		return m.Knee
	}
	p := m.WorkingSetBytes / bytes
	if p <= 1 {
		tail := 0.05 * (m.Knee - m.Floor) * math.Pow(p, m.Alpha)
		return m.Floor + tail
	}
	start := m.Floor + 0.05*(m.Knee-m.Floor)
	span := m.Knee - start
	grown := 1 - math.Pow(p, -m.Alpha)
	return start + span*grown
}

func checkRatio(t *testing.T, m PowerLawMRC, bytes float64) {
	t.Helper()
	c := m.Compile()
	if got, want := c.Ratio(bytes), refRatio(m, bytes); !sameBits(got, want) {
		t.Fatalf("%+v at %v bytes: compiled %v (%#x), reference %v (%#x)",
			m, bytes, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := m.Ratio(bytes), refRatio(m, bytes); !sameBits(got, want) {
		t.Fatalf("%+v at %v bytes: Ratio %v, reference %v", m, bytes, got, want)
	}
}

func TestCompiledMRCMatchesReference(t *testing.T) {
	for _, a := range All() {
		for e := 10.0; e <= 40; e += 0.013 {
			checkRatio(t, a.MRC, math.Exp2(e))
		}
		for _, b := range []float64{0, -1, a.MRC.WorkingSetBytes, math.Inf(1), math.NaN(), 5e-324} {
			checkRatio(t, a.MRC, b)
		}
	}
}

// FuzzMRCRatio compares the compiled curve with refRatio bit for bit, for
// an arbitrary curve and for every catalogue curve at the fuzzed size.
func FuzzMRCRatio(f *testing.F) {
	f.Add(256*mib, 0.85, 0.30, 0.50, 12*mib)
	f.Add(1*mib, 0.5, 0.001, 1.0, 30*mib)
	f.Add(24*mib, 0.45, 0.025, 0.85, 3*mib)
	f.Add(6*mib, 0.45, 0.0035, 1.1, 6*mib)
	f.Add(1.0, 1.0, 0.0, 2.5, 1e-200)
	f.Fuzz(func(t *testing.T, ws, knee, floor, alpha, bytes float64) {
		checkRatio(t, PowerLawMRC{WorkingSetBytes: ws, Knee: knee, Floor: floor, Alpha: alpha}, bytes)
		for _, a := range apps {
			checkRatio(t, a.MRC, bytes)
		}
	})
}
