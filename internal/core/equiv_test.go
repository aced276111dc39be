package core_test

// Compiled-vs-interpreted equivalence: the property-test harness
// (internal/testeq) sweeps randomly generated models — both techniques,
// hidden widths up to 64, 1–8 P-states, random feature subsets with
// duplicates and out-of-set interaction operands — and asserts every
// predict path agrees bit for bit. These tests live in an external
// package because testeq imports core.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	_ "unsafe" // go:linkname

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/testeq"
)

// TestCompiledEquivalenceProperty is the acceptance sweep: ≥200 seeded
// random models, each checked bit-for-bit through Predict,
// PredictScenarios and PredictIDsInto over valid and hostile scenarios.
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

// useMatKernel is linalg's unexported switch between its AVX2 matrix
// kernels and its Go loops.
//
//go:linkname useMatKernel colocmodel/internal/linalg.useMatKernel
var useMatKernel bool

// TestCompiledEquivalencePropertyGoLoops reruns the acceptance sweep with
// linalg's Go loops; the sweep itself runs on whichever path init
// selected, the AVX2 kernels on an AVX2 host.
func TestCompiledEquivalencePropertyGoLoops(t *testing.T) {
	saved := useMatKernel
	useMatKernel = false
	t.Cleanup(func() { useMatKernel = saved })
	TestCompiledEquivalenceProperty(t)
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

// idRows resolves scenarios to rows of the model's application ids.
func idRows(t testing.TB, m *core.Model, scs []features.Scenario) []core.IDScenario {
	t.Helper()
	rows := make([]core.IDScenario, len(scs))
	for i, sc := range scs {
		var ok bool
		if rows[i].Target, ok = m.AppID(sc.Target); !ok {
			t.Fatalf("unknown target %q", sc.Target)
		}
		rows[i].PState = sc.PState
		for _, a := range sc.CoApps {
			id, ok := m.AppID(a)
			if !ok {
				t.Fatalf("unknown co-app %q", a)
			}
			rows[i].CoApps = append(rows[i].CoApps, id)
		}
	}
	return rows
}

// TestCompiledPredictZeroAllocs pins the compiled path's headline
// property through the model's own entry points: once the pooled
// instance is warm, Predict and PredictIDsInto — one row and a batch of
// 64 — allocate nothing, for both techniques. The race detector's
// sync.Pool drops a share of Puts, so the guard runs without it.
func TestCompiledPredictZeroAllocs(t *testing.T) {
	if testeq.RaceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	gen := testeq.New(7, testeq.GenConfig{})
	for _, tech := range []core.Technique{core.Linear, core.NeuralNet} {
		m := genModel(t, gen, tech)
		scs := gen.Scenarios(m, 64)
		rows := idRows(t, m, scs)
		out := make([]float64, len(rows))

		// Warm the instance (the first batch grows the design matrix),
		// then measure.
		if _, err := m.Predict(scs[0]); err != nil {
			t.Fatal(err)
		}
		if err := m.PredictIDsInto(rows, out); err != nil {
			t.Fatal(err)
		}

		if n := testing.AllocsPerRun(200, func() {
			if _, err := m.Predict(scs[0]); err != nil {
				t.Error(err)
			}
		}); n != 0 {
			t.Errorf("%v: warm Predict allocates %.1f/op, want 0", tech, n)
		}
		for _, k := range []int{1, len(rows)} {
			if n := testing.AllocsPerRun(50, func() {
				if err := m.PredictIDsInto(rows[:k], out[:k]); err != nil {
					t.Error(err)
				}
			}); n != 0 {
				t.Errorf("%v: warm PredictIDsInto of %d rows allocates %.1f/op, want 0", tech, k, n)
			}
		}
	}
}

// TestCompileOnLoad pins compile-on-load from both sides: generated
// artefacts load and predict through their compiled program, and the
// committed scaler-width-mismatch artefact — an input scaler fitted on
// three columns for a width-four network — is refused by LoadModel with
// the compiler's error instead of loading without a program.
func TestCompileOnLoad(t *testing.T) {
	gen := testeq.New(11, testeq.GenConfig{})
	for i := 0; i < 8; i++ {
		m, err := gen.Model()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Predict(gen.Scenarios(m, 1)[0]); err != nil {
			t.Fatalf("model %d (%s): %v", i, m.Spec, err)
		}
	}
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
	if err == nil || !strings.Contains(err.Error(), "compile: input scaler") {
		t.Fatalf("scaler-width-mismatch artefact: model %v, err = %v; want the compiler's scaler error", m, err)
	}
}

// TestPooledPredictConcurrent drives one model's pool from several
// goroutines at once: each mixes Predict, PredictScenarios at widths 1,
// 3 and 64, and PredictIDsInto, so instances change hands between
// goroutines and batch shapes, and every result must be bit-equal to the
// interpreted reference. Run under -race.
func TestPooledPredictConcurrent(t *testing.T) {
	gen := testeq.New(0xc0c0, testeq.GenConfig{})
	for _, tech := range []core.Technique{core.Linear, core.NeuralNet} {
		m := genModel(t, gen, tech)
		scs := gen.Scenarios(m, 64)
		rows := idRows(t, m, scs)
		want, err := m.PredictScenariosInterpreted(scs)
		if err != nil {
			t.Fatal(err)
		}
		same := func(what string, off int, got []float64) error {
			for i, v := range got {
				if math.Float64bits(v) != math.Float64bits(want[off+i]) {
					return fmt.Errorf("%v %s slot %d: %v != interpreted %v", tech, what, off+i, v, want[off+i])
				}
			}
			return nil
		}
		const workers, rounds = 6, 40
		run := func(w int) error {
			out := make([]float64, len(rows))
			for r := 0; r < rounds; r++ {
				i := (w*rounds + r) % len(scs)
				v, err := m.Predict(scs[i])
				if err != nil {
					return err
				}
				if err := same("Predict", i, []float64{v}); err != nil {
					return err
				}
				for _, n := range []int{1, 3, 64} {
					off := (i * n) % (len(scs) - n + 1)
					got, err := m.PredictScenarios(scs[off : off+n])
					if err != nil {
						return err
					}
					if err := same(fmt.Sprintf("PredictScenarios(%d)", n), off, got); err != nil {
						return err
					}
				}
				k := 1 + i
				if err := m.PredictIDsInto(rows[:k], out[:k]); err != nil {
					return err
				}
				if err := same("PredictIDsInto", 0, out[:k]); err != nil {
					return err
				}
			}
			return nil
		}
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := run(w); err != nil {
					errs <- err
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}
