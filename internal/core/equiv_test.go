package core_test

// Compiled-vs-interpreted equivalence: the property-test harness
// (internal/testeq) sweeps randomly generated models — both techniques,
// hidden widths up to 64, 1–8 P-states, random feature subsets with
// duplicates and out-of-set interaction operands — and asserts every
// predict path agrees bit for bit. These tests live in an external
// package because testeq imports core.

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/testeq"
)

// TestCompiledEquivalenceProperty is the acceptance sweep: ≥200 seeded
// random models, each checked bit-for-bit on the scalar, pooled-dispatch
// and batched paths over valid and hostile scenarios.
func TestCompiledEquivalenceProperty(t *testing.T) {
	const models = 220
	gen := testeq.New(0xc010c, testeq.GenConfig{})
	var linear, neural int
	for i := 0; i < models; i++ {
		m, err := gen.Model()
		if err != nil {
			t.Fatalf("model %d: %v", i, err)
		}
		switch m.Spec.Technique {
		case core.Linear:
			linear++
		case core.NeuralNet:
			neural++
		}
		scs := gen.Scenarios(m, 12)
		scs = append(scs, gen.HostileScenarios(m, 6)...)
		testeq.CheckModel(t, m, scs)
	}
	// The generator must actually cover both techniques, or the sweep
	// silently proves half of what it claims.
	if linear < models/4 || neural < models/4 {
		t.Fatalf("generator imbalance: %d linear, %d neural of %d", linear, neural, models)
	}
}

// genModel draws models until one of the wanted technique appears.
func genModel(t *testing.T, gen *testeq.Gen, tech core.Technique) *core.Model {
	t.Helper()
	for i := 0; i < 100; i++ {
		m, err := gen.Model()
		if err != nil {
			t.Fatal(err)
		}
		if m.Spec.Technique == tech {
			return m
		}
	}
	t.Fatalf("no %v model in 100 draws", tech)
	return nil
}

// TestCompiledPredictZeroAllocs pins the compiled fast path's headline
// property: a warmed Compiled instance predicts — scalar and batched —
// with zero heap allocations, for both techniques.
func TestCompiledPredictZeroAllocs(t *testing.T) {
	gen := testeq.New(7, testeq.GenConfig{})
	for _, tech := range []core.Technique{core.Linear, core.NeuralNet} {
		m := genModel(t, gen, tech)
		c, err := m.Compile()
		if err != nil {
			t.Fatal(err)
		}
		scs := gen.Scenarios(m, 64)
		out := make([]float64, len(scs))

		// Warm the scratch (first batch grows the design matrix), then
		// measure.
		if _, err := c.Predict(scs[0]); err != nil {
			t.Fatal(err)
		}
		if err := c.PredictScenarios(scs, out); err != nil {
			t.Fatal(err)
		}

		if n := testing.AllocsPerRun(200, func() {
			if _, err := c.Predict(scs[0]); err != nil {
				t.Error(err)
			}
		}); n != 0 {
			t.Errorf("%v: warm compiled scalar predict allocates %.1f/op, want 0", tech, n)
		}
		if n := testing.AllocsPerRun(50, func() {
			if err := c.PredictScenarios(scs, out); err != nil {
				t.Error(err)
			}
		}); n != 0 {
			t.Errorf("%v: warm compiled batch predict allocates %.1f/op, want 0", tech, n)
		}
	}
}

// TestCompileOnLoad pins compile-on-load: models coming out of both
// trainXY (via testeq's generator, which trains nothing) and LoadModel
// carry a compiled program without any explicit Compile call.
func TestCompileOnLoad(t *testing.T) {
	gen := testeq.New(11, testeq.GenConfig{})
	for i := 0; i < 8; i++ {
		m, err := gen.Model()
		if err != nil {
			t.Fatal(err)
		}
		if !m.IsCompiled() {
			t.Fatalf("model %d (%s) not compiled after LoadModel", i, m.Spec)
		}
	}
}

// TestPredictScenariosIntoInterpretedFallback drives the caller-buffer
// entry point through the branch CheckModel cannot reach: the committed
// scaler-width-mismatch artefact loads but defeats the compiler, so
// PredictScenariosInto must take the interpreted path inside core and
// agree with PredictScenarios on it (here: both reject every scenario,
// the scaler having been fitted on another width).
func TestPredictScenariosIntoInterpretedFallback(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzCompileModel/scaler-width-mismatch")
	if err != nil {
		t.Fatal(err)
	}
	// Corpus files are a version line and one Go-quoted []byte literal.
	lit := strings.TrimSpace(strings.SplitN(string(raw), "\n", 2)[1])
	artefact, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.LoadModel(bytes.NewReader([]byte(artefact)))
	if err != nil {
		t.Fatal(err)
	}
	if m.IsCompiled() {
		t.Fatal("scaler-width-mismatch artefact compiled; it no longer exercises the fallback")
	}
	apps := m.Apps()
	testeq.CheckInto(t, m, []features.Scenario{
		{Target: apps[0]},
		{Target: apps[1], CoApps: []string{apps[0], apps[0]}},
	})
	testeq.CheckInto(t, m, nil)
}
