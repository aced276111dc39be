package linalg

import (
	"math"
	"testing"

	"colocmodel/internal/xrand"
)

// tier is one implementation an entry point can take, as the settings
// of its two switches that force it: the packed kernels at all, and
// their 8-lane tier.
type tier struct {
	name     string
	on, wide bool
}

// tiers lists the tiers a pair of switches selects among on this host,
// given what init set them to: the 8-lane kernels, the 4-lane kernels,
// then the Go loop, named goName.
func tiers(on, wide bool, goName string) []tier {
	var out []tier
	if wide {
		out = append(out, tier{"kernel512", true, true})
	}
	if on {
		out = append(out, tier{"kernel", true, false})
	}
	return append(out, tier{goName, false, false})
}

// set points the switches at t and returns the function that restores
// them.
func (t tier) set(on, wide *bool) (restore func()) {
	savedOn, savedWide := *on, *wide
	*on, *wide = t.on, t.wide
	return func() { *on, *wide = savedOn, savedWide }
}

// logTiers records which kernel tiers init did not select on this host,
// so a run on a CPU without AVX2 or AVX512F says what it did not check.
func logTiers(t testing.TB, what string, on, wide bool) {
	t.Helper()
	switch {
	case !on:
		t.Logf("%s kernels not selected on this host: only the Go loop runs", what)
	case !wide:
		t.Logf("8-lane %s kernel not selected on this host: only the 4-lane kernel and the Go loop run", what)
	}
}

// matTiers lists the tiers the matrix kernels select among on this host.
func matTiers() []tier { return tiers(useMatKernel, useMat512, "go") }

// matPaths runs f once per implementation the products can take on this
// host: the 8-lane and 4-lane kernels where init selected them, and the
// Go loops.
func matPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	logTiers(t, "matrix", useMatKernel, useMat512)
	for _, tr := range matTiers() {
		t.Run(tr.name, func(t *testing.T) {
			t.Cleanup(tr.set(&useMatKernel, &useMat512))
			f(t)
		})
	}
}

// kernelSpecials are the inputs whose arithmetic is its own: signed
// zeros, NaN with two payloads and signs, infinities, subnormals, and
// values whose products overflow or underflow.
var kernelSpecials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xFFF8000000000123),
	math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 2.2250738585072e-310, -1e-320,
	math.MaxFloat64, -math.MaxFloat64, 1e-300, 1, -1,
}

// fuzzFill fills m from src: a special value where src's draw falls
// under density/256, a standard normal elsewhere.
func fuzzFill(m *Matrix, src *xrand.Source, density uint8) {
	for i := range m.Data {
		if src.Uint64()%256 < uint64(density) {
			m.Data[i] = kernelSpecials[src.Uint64()%uint64(len(kernelSpecials))]
		} else {
			m.Data[i] = src.Normal(0, 1)
		}
	}
}

// fuzzDst returns a rows×cols destination in one of four starting
// states: zeros, one bias row repeated down the matrix (how a dense
// layer starts), -0 everywhere (where skipping a zero term shows: -0 +
// +0 is +0), and independent values with specials.
func fuzzDst(rows, cols int, mode uint8, src *xrand.Source, density uint8) *Matrix {
	dst := NewMatrix(rows, cols)
	switch mode % 4 {
	case 1:
		bias := NewMatrix(1, cols)
		fuzzFill(bias, src, density)
		for i := 0; i < rows; i++ {
			copy(dst.Data[i*cols:(i+1)*cols], bias.Data)
		}
	case 2:
		for i := range dst.Data {
			dst.Data[i] = math.Copysign(0, -1)
		}
	case 3:
		fuzzFill(dst, src, density)
	}
	return dst
}

// fuzzShape maps fuzzer bytes to a product shape: 0–70 rows and inner
// and output widths of 1–37, so every 4-row and 4-column tail occurs.
func fuzzShape(rows, inner, cols uint8) (int, int, int) {
	return int(rows) % 71, 1 + int(inner)%37, 1 + int(cols)%37
}

// kernelAgrees runs op on a copy of dst in every kernel tier this host
// runs and on another with the Go loops, and fails on every element
// whose bits differ. Any NaN matches any NaN: which NaN's payload
// survives an operation on two NaNs depends on operand order, which Go
// leaves to its compiler.
func kernelAgrees(t *testing.T, name string, dst *Matrix, op func(dst *Matrix)) {
	t.Helper()
	all := matTiers()
	goLoop := all[len(all)-1]
	want := dst.Clone()
	runTier(goLoop, func() { op(want) })
	for _, tr := range all[:len(all)-1] {
		got := dst.Clone()
		runTier(tr, func() { op(got) })
		for i := range want.Data {
			if !sameFloat(got.Data[i], want.Data[i]) {
				t.Fatalf("%s %dx%d: element %d: %s %v [%#016x], Go %v [%#016x]", name, dst.Rows, dst.Cols, i,
					tr.name, got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
			}
		}
	}
}

// runTier runs f with the matrix kernels set to tr.
func runTier(tr tier, f func()) {
	defer tr.set(&useMatKernel, &useMat512)()
	f()
}

func addKernelSeeds(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(3), uint8(0), uint8(0), uint64(1))
	f.Add(uint8(70), uint8(7), uint8(19), uint8(1), uint8(0), uint64(2))
	f.Add(uint8(5), uint8(19), uint8(3), uint8(2), uint8(64), uint64(3))
	f.Add(uint8(9), uint8(36), uint8(36), uint8(3), uint8(128), uint64(4))
	f.Add(uint8(64), uint8(8), uint8(20), uint8(1), uint8(16), uint64(5))
	f.Add(uint8(13), uint8(0), uint8(9), uint8(2), uint8(255), uint64(6))
}

// addTileSeeds adds the shapes of the register tiles the neural model's
// products run in: 1, 4 and 20 as the inner width (the rows of
// AccumMulATB's dst) by 8 and 20 columns, over 64 rows, each from a -0
// dst and from a repeated bias row, with a few specials.
func addTileSeeds(f *testing.F) {
	for i, n := range []uint8{1, 4, 20} {
		for j, k := range []uint8{8, 20} {
			f.Add(uint8(64), n-1, k-1, uint8(2), uint8(8), uint64(10+2*i+j))
			f.Add(uint8(64), n-1, k-1, uint8(1), uint8(8), uint64(20+2*i+j))
		}
	}
}

// FuzzAccumMulABT checks the packed A·Bᵀ product, MulABTBias, whose
// result must not depend on what dst held before.
func FuzzAccumMulABT(f *testing.F) {
	logTiers(f, "matrix", useMatKernel, useMat512)
	addKernelSeeds(f)
	addTileSeeds(f)
	f.Fuzz(func(t *testing.T, rows, inner, cols, mode, density uint8, seed uint64) {
		m, n, k := fuzzShape(rows, inner, cols)
		src := xrand.New(seed)
		a, bt, bias := NewMatrix(m, n), NewMatrix(n, k), NewMatrix(1, k)
		fuzzFill(a, src, density)
		fuzzFill(bt, src, density)
		fuzzFill(bias, src, density)
		kernelAgrees(t, "MulABTBias", fuzzDst(m, k, mode, src, density), func(dst *Matrix) { MulABTBias(dst, a, bt, bias.Data) })
	})
}

func FuzzAccumMulATB(f *testing.F) {
	addKernelSeeds(f)
	addTileSeeds(f)
	f.Fuzz(func(t *testing.T, rows, inner, cols, mode, density uint8, seed uint64) {
		m, n, k := fuzzShape(rows, inner, cols)
		src := xrand.New(seed)
		a, b := NewMatrix(m, n), NewMatrix(m, k)
		fuzzFill(a, src, density)
		fuzzFill(b, src, density)
		kernelAgrees(t, "AccumMulATB", fuzzDst(n, k, mode, src, density), func(dst *Matrix) { AccumMulATB(dst, a, b) })
	})
}

func FuzzAccumMatMul(f *testing.F) {
	addKernelSeeds(f)
	f.Fuzz(func(t *testing.T, rows, inner, cols, mode, density uint8, seed uint64) {
		m, n, k := fuzzShape(rows, inner, cols)
		src := xrand.New(seed)
		a, b := NewMatrix(m, n), NewMatrix(n, k)
		fuzzFill(a, src, density)
		fuzzFill(b, src, density)
		kernelAgrees(t, "AccumMatMul", fuzzDst(m, k, mode, src, density), func(dst *Matrix) { AccumMatMul(dst, a, b) })
	})
}

func FuzzAccumColSums(f *testing.F) {
	addKernelSeeds(f)
	f.Fuzz(func(t *testing.T, rows, inner, cols, mode, density uint8, seed uint64) {
		m, _, k := fuzzShape(rows, inner, cols)
		src := xrand.New(seed)
		a := NewMatrix(m, k)
		fuzzFill(a, src, density)
		kernelAgrees(t, "AccumColSums", fuzzDst(1, k, mode, src, density), func(dst *Matrix) { AccumColSums(dst.Data, a) })
	})
}

func FuzzMulTanhDeriv(f *testing.F) {
	addKernelSeeds(f)
	f.Fuzz(func(t *testing.T, rows, inner, cols, mode, density uint8, seed uint64) {
		m, _, k := fuzzShape(rows, inner, cols)
		src := xrand.New(seed)
		y := NewMatrix(m, k)
		fuzzFill(y, src, density)
		kernelAgrees(t, "MulTanhDeriv", fuzzDst(m, k, mode, src, density), func(dst *Matrix) { MulTanhDeriv(dst.Data, y.Data) })
	})
}

// TestKernelsRefuseShortData checks the products panic, rather than read
// or write past a slice, when a matrix holds fewer elements than its
// shape names.
func TestKernelsRefuseShortData(t *testing.T) {
	short := &Matrix{Rows: 8, Cols: 8, Data: make([]float64, 63)}
	full := NewMatrix(8, 8)
	for name, fn := range map[string]func(){
		"AccumMatMul":  func() { AccumMatMul(full, full, short) },
		"AccumMulATB":  func() { AccumMulATB(full, short, full) },
		"MulABTBias-a": func() { MulABTBias(full, short, full, make([]float64, 8)) },
		"MulABTBias":   func() { MulABTBias(short, full, full, make([]float64, 8)) },
		"AccumColSums": func() { AccumColSums(make([]float64, 8), short) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on short data", name)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkKernels times the kernels at the neural model's shapes (8
// inputs, 20 hidden nodes) on each path: the serving hidden layer over a
// 352-row batch, and the training products, bias gradient and tanh
// derivative over 1 848 samples. Under kernel512 the kernels without an
// 8-lane twin run their 4-lane code.
func BenchmarkKernels(b *testing.B) {
	src := xrand.New(1)
	x, h := randomMatrix(src, 1848, 8), randomMatrix(src, 1848, 20)
	wt, w, bias := randomMatrix(src, 8, 20), randomMatrix(src, 1, 20), randomMatrix(src, 1, 20)
	delta, deltaOut, zeros := randomMatrix(src, 1848, 20), randomMatrix(src, 1848, 1), NewMatrix(1848, 20)
	xs := &Matrix{Rows: 352, Cols: 8, Data: x.Data[:352*8]}
	cases := []struct {
		name string
		dst  *Matrix
		op   func(dst *Matrix)
	}{
		{"ATB/1848x20x8", NewMatrix(20, 8), func(dst *Matrix) { AccumMulATB(dst, delta, x) }},
		{"ATB/1848x1x20", NewMatrix(1, 20), func(dst *Matrix) { AccumMulATB(dst, deltaOut, h) }},
		{"MatMul/1848x1x20", NewMatrix(1848, 20), func(dst *Matrix) { AccumMatMul(dst, deltaOut, w) }},
		{"ABTBias/352x8x20", NewMatrix(352, 20), func(dst *Matrix) { MulABTBias(dst, xs, wt, bias.Data) }},
		{"ColSums/1848x20", NewMatrix(1, 20), func(dst *Matrix) { AccumColSums(dst.Data, delta) }},
		// Outputs of 0 multiply by exactly 1, so dst stays normal however
		// many times the loop runs.
		{"TanhDeriv/1848x20", delta.Clone(), func(dst *Matrix) { MulTanhDeriv(dst.Data, zeros.Data) }},
	}
	for _, c := range cases {
		for _, tr := range matTiers() {
			b.Run(c.name+"/"+tr.name, func(b *testing.B) {
				defer tr.set(&useMatKernel, &useMat512)()
				for i := 0; i < b.N; i++ {
					c.op(c.dst)
				}
			})
		}
	}
}
