package mlp

import (
	"math"
	"testing"
	"testing/quick"

	"colocmodel/internal/linalg"
	"colocmodel/internal/xrand"
)

func newNet(t testing.TB, inputs, hidden int) *Network {
	t.Helper()
	n, err := New(Config{Inputs: inputs, Hidden: hidden, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Inputs: 0, Hidden: 5},
		{Inputs: 2, Hidden: 0},
		{Inputs: 2, Hidden: -1},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestParamLayoutAndRoundTrip(t *testing.T) {
	n := newNet(t, 3, 4)
	// Params: 3*4+4 + 4*1+1 = 16+5 = 21.
	if n.NumParams() != 21 {
		t.Fatalf("params = %d, want 21", n.NumParams())
	}
	p := n.Params()
	p[0] = 42
	if n.Params()[0] == 42 {
		t.Fatal("Params returned aliased slice")
	}
	if err := n.SetParams(p); err != nil {
		t.Fatal(err)
	}
	if n.Params()[0] != 42 {
		t.Fatal("SetParams did not apply")
	}
	if err := n.SetParams([]float64{1}); err == nil {
		t.Fatal("short param vector accepted")
	}
}

// TestFromParams restores a network from its configuration and
// parameters, and refuses shapes that do not match the parameters given,
// including shapes whose parameter count would overflow an int or ask for
// gigabytes.
func TestFromParams(t *testing.T) {
	n := newNet(t, 3, 4)
	r, err := FromParams(n.Config(), n.Params())
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.3, -1, 2}
	want, _ := n.Forward(in)
	if got, _ := r.Forward(in); got != want {
		t.Fatalf("restored network predicts %v, want %v", got, want)
	}
	p := n.Params()
	r, _ = FromParams(n.Config(), p)
	p[0]++
	if r.Params()[0] == p[0] {
		t.Fatal("FromParams aliased the caller's slice")
	}
	bad := map[string]Config{
		"short": {Inputs: 3, Hidden: 5},
		// The count overflows a uint64.
		"overflow": {Inputs: 1, Hidden: math.MaxInt},
		// The count fits a uint64, not an int.
		"overflow-int":   {Inputs: 1, Hidden: math.MaxInt / 2},
		"huge":           {Inputs: 1, Hidden: math.MaxInt32},
		"huge-inputs":    {Inputs: math.MaxInt32, Hidden: 4},
		"invalid-config": {Inputs: 0, Hidden: 4},
	}
	for name, cfg := range bad {
		if _, err := FromParams(cfg, n.Params()); err == nil {
			t.Fatalf("%s: shape %d→%d accepted for %d params", name, cfg.Inputs, cfg.Hidden, n.NumParams())
		}
	}
	// New lays shapes out the same way, so it refuses an overflowing
	// count instead of passing a wrapped length to make.
	for _, name := range []string{"overflow", "overflow-int"} {
		if _, err := New(bad[name]); err == nil {
			t.Fatalf("New accepted the %s shape", name)
		}
	}
}

func TestForwardErrors(t *testing.T) {
	n := newNet(t, 2, 3)
	if _, err := n.Forward([]float64{1}); err == nil {
		t.Fatal("short input accepted")
	}
	if _, err := n.PredictBatch(linalg.NewMatrix(2, 3)); err == nil {
		t.Fatal("wrong-width batch accepted")
	}
}

func TestDeterministicInitialisation(t *testing.T) {
	a, _ := New(Config{Inputs: 2, Hidden: 5, Seed: 3})
	b, _ := New(Config{Inputs: 2, Hidden: 5, Seed: 3})
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed, different weights")
		}
	}
	c, _ := New(Config{Inputs: 2, Hidden: 5, Seed: 4})
	same := true
	for i, v := range c.Params() {
		if v != pa[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds, same weights")
	}
}

// TestGradientCheck verifies backprop against central finite differences.
func TestGradientCheck(t *testing.T) {
	src := xrand.New(5)
	n := newNet(t, 3, 4)
	x := linalg.NewMatrix(7, 3)
	y := make([]float64, 7)
	for i := range x.Data {
		x.Data[i] = src.Normal(0, 1)
	}
	for i := range y {
		y[i] = src.Normal(0, 1)
	}
	var ws Workspace
	grad := make([]float64, len(n.params))
	if _, err := n.LossAndGradWS(&ws, x, y, grad); err != nil {
		t.Fatal(err)
	}
	p := n.Params()
	const h = 1e-6
	for i := range p {
		orig := p[i]
		p[i] = orig + h
		if err := n.SetParams(p); err != nil {
			t.Fatal(err)
		}
		lp, _ := n.LossWS(&ws, x, y)
		p[i] = orig - h
		if err := n.SetParams(p); err != nil {
			t.Fatal(err)
		}
		lm, _ := n.LossWS(&ws, x, y)
		p[i] = orig
		if err := n.SetParams(p); err != nil {
			t.Fatal(err)
		}
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grad[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("grad[%d] = %v, numerical %v", i, grad[i], num)
		}
	}
}

func TestLossAndGradErrors(t *testing.T) {
	n := newNet(t, 2, 3)
	x := linalg.NewMatrix(2, 2)
	var ws Workspace
	grad := make([]float64, len(n.params))
	if _, err := n.LossAndGradWS(&ws, x, []float64{1}, grad); err == nil {
		t.Fatal("mismatched labels accepted")
	}
	if _, err := n.LossAndGradWS(&ws, linalg.NewMatrix(2, 3), []float64{1, 2}, grad); err == nil {
		t.Fatal("wrong-width matrix accepted")
	}
	if _, err := n.LossWS(&ws, x, []float64{1}); err == nil {
		t.Fatal("Loss mismatched labels accepted")
	}
}

// xorProblem builds the classic non-linearly-separable XOR regression
// task, which a linear model cannot fit.
func xorProblem() (*linalg.Matrix, []float64) {
	x := linalg.NewMatrixFromRows([][]float64{{-1, -1}, {-1, 1}, {1, -1}, {1, 1}})
	y := []float64{-1, 1, 1, -1}
	return x, y
}

func TestSCGSolvesXOR(t *testing.T) {
	x, y := xorProblem()
	n, err := New(Config{Inputs: 2, Hidden: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainSCGWS(n, x, y, SCGConfig{MaxIter: 2000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// XOR is exactly representable, so SCG drives the loss to round-off
	// and stops on the gradient tolerance well inside the budget.
	if !res.Converged || res.FinalLoss > 1e-10 {
		t.Fatalf("SCG failed XOR: loss %v after %d iters (converged %v)", res.FinalLoss, res.Iterations, res.Converged)
	}
	for i := 0; i < x.Rows; i++ {
		p, err := n.Forward(x.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-y[i]) > 0.1 {
			t.Fatalf("XOR sample %d: predicted %v, want %v", i, p, y[i])
		}
	}
}

func TestSCGMonotoneLossHistory(t *testing.T) {
	x, y := xorProblem()
	n, _ := New(Config{Inputs: 2, Hidden: 6, Seed: 3})
	res, err := TrainSCGWS(n, x, y, SCGConfig{MaxIter: 200}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.LossHistory); i++ {
		if res.LossHistory[i] > res.LossHistory[i-1]+1e-12 {
			t.Fatalf("accepted SCG step increased loss at %d: %v -> %v",
				i, res.LossHistory[i-1], res.LossHistory[i])
		}
	}
}

func TestSCGFitsSmoothNonlinearFunction(t *testing.T) {
	src := xrand.New(8)
	n := 200
	x := linalg.NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := -1+2*src.Float64(), -1+2*src.Float64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y[i] = math.Sin(2*a) * math.Cos(b)
	}
	net, _ := New(Config{Inputs: 2, Hidden: 16, Seed: 4})
	res, err := TrainSCGWS(net, x, y, SCGConfig{MaxIter: 800}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss > 0.002 {
		t.Fatalf("SCG fit too poor: loss %v", res.FinalLoss)
	}
}

func TestSCGErrors(t *testing.T) {
	n := newNet(t, 2, 3)
	if _, err := TrainSCGWS(n, linalg.NewMatrix(0, 2), nil, SCGConfig{}, nil); err == nil {
		t.Fatal("empty training set accepted")
	}
}

// TestSCGRejectsBadInput checks the trainer fails, leaving the network
// untouched, on a negative iteration bound and on training data no step
// could fit: with MaxIter -1 it used to return the untrained network and
// no error, with -5 it panicked, and a NaN label made every step a
// rejected one and returned the initial weights with a NaN loss.
func TestSCGRejectsBadInput(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name    string
		maxIter int
		x       [][]float64
		y       []float64
	}{
		{"MaxIter -1", -1, [][]float64{{-1, -1}, {1, 1}}, []float64{-1, 1}},
		{"MaxIter -5", -5, [][]float64{{-1, -1}, {1, 1}}, []float64{-1, 1}},
		{"NaN label", 50, [][]float64{{-1, -1}, {1, 1}}, []float64{nan, 1}},
		{"+Inf label", 50, [][]float64{{-1, -1}, {1, 1}}, []float64{-1, inf}},
		{"NaN feature", 0, [][]float64{{nan, -1}, {1, 1}}, []float64{-1, 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := newNet(t, 2, 3)
			before := n.Params()
			res, err := TrainSCGWS(n, linalg.NewMatrixFromRows(c.x), c.y, SCGConfig{MaxIter: c.maxIter}, nil)
			if err == nil {
				t.Fatalf("trained without error: %+v", res)
			}
			for i, p := range n.Params() {
				if math.Float64bits(p) != math.Float64bits(before[i]) {
					t.Fatalf("param %d moved from %v to %v on a failed training", i, before[i], p)
				}
			}
		})
	}
}

// Property: training is deterministic given identical seeds and data.
func TestTrainingDeterministicProperty(t *testing.T) {
	f := func(seed uint8) bool {
		x, y := xorProblem()
		a, _ := New(Config{Inputs: 2, Hidden: 5, Seed: uint64(seed)})
		b, _ := New(Config{Inputs: 2, Hidden: 5, Seed: uint64(seed)})
		ra, err := TrainSCGWS(a, x, y, SCGConfig{MaxIter: 50}, nil)
		if err != nil {
			return false
		}
		rb, err := TrainSCGWS(b, x, y, SCGConfig{MaxIter: 50}, nil)
		if err != nil {
			return false
		}
		return ra.FinalLoss == rb.FinalLoss && ra.Iterations == rb.Iterations
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSCGTrain(b *testing.B) {
	src := xrand.New(10)
	n := 500
	x := linalg.NewMatrix(n, 8)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < 8; j++ {
			v := src.Normal(0, 1)
			x.Set(i, j, v)
			s += v
		}
		y[i] = math.Tanh(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, _ := New(Config{Inputs: 8, Hidden: 15, Seed: uint64(i)})
		if _, err := TrainSCGWS(net, x, y, SCGConfig{MaxIter: 100}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForward(b *testing.B) {
	n, _ := New(Config{Inputs: 8, Hidden: 20, Seed: 1})
	in := make([]float64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Forward(in); err != nil {
			b.Fatal(err)
		}
	}
}
