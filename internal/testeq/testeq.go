// Package testeq is the compiled-vs-interpreted equivalence harness: a
// seeded random model generator plus bit-for-bit assertion helpers that
// prove a model's compiled predict program (internal/core/compile.go)
// reproduces the interpreted reference path exactly — scalar, batched,
// and PredictScenarios, across techniques, widths and P-state counts.
//
// It extends the pattern PR 5 established for batched-vs-scalar kernels
// into a reusable harness: models are generated as *artefact JSON* and
// materialised through core.LoadModel, so every generated model also
// exercises the load→compile boundary the serving tier depends on, with
// parameters drawn randomly rather than trained (equivalence does not
// care whether the weights are good, only that both paths agree on
// them). The package is imported only by tests but lives outside _test
// files so the core, serve and fuzz suites can all share one generator.
package testeq

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/xrand"
)

// GenConfig bounds the generator's model space. The zero value selects
// the full space the acceptance harness sweeps: both techniques, hidden
// widths 1–64, 1–8 P-states, 2–6 applications, optional interaction
// columns and occasional two-layer or non-tanh networks.
type GenConfig struct {
	// MaxHidden caps neural hidden-layer width (default 64).
	MaxHidden int
	// MaxPStates caps the baseline P-state count (default 8).
	MaxPStates int
	// MaxApps caps the baseline store size (default 6).
	MaxApps int
}

func (c *GenConfig) defaults() {
	if c.MaxHidden == 0 {
		c.MaxHidden = 64
	}
	if c.MaxPStates == 0 {
		c.MaxPStates = 8
	}
	if c.MaxApps == 0 {
		c.MaxApps = 6
	}
}

// Gen generates random models and scenarios from one seeded stream.
type Gen struct {
	src *xrand.Source
	cfg GenConfig
}

// New returns a generator; equal seeds generate equal sequences.
func New(seed uint64, cfg GenConfig) *Gen {
	cfg.defaults()
	return &Gen{src: xrand.New(seed), cfg: cfg}
}

// Artifact emits one random model artefact as the JSON core.LoadModel
// reads. The artefact is always loadable: every invariant the loader
// checks (finite positive baselines, coefficient arity, parameter count)
// holds by construction.
func (g *Gen) Artifact() []byte {
	r := g.src
	pstates := 1 + r.Intn(g.cfg.MaxPStates)
	apps := 2 + r.Intn(g.cfg.MaxApps-1)

	baselines := make(map[string]any, apps)
	for a := 0; a < apps; a++ {
		secs := make([]float64, pstates)
		for p := range secs {
			secs[p] = math.Exp(r.Normal(4, 0.7)) // tens to hundreds of seconds
		}
		baselines[fmt.Sprintf("app%d", a)] = map[string]any{
			"App":             fmt.Sprintf("app%d", a),
			"SecondsByPState": secs,
			"MemIntensity":    math.Abs(r.Normal(0, 1e-3)),
			"CMPerCA":         r.Float64(),
			"CAPerIns":        math.Abs(r.Normal(0, 0.05)),
		}
	}
	freqs := make([]float64, pstates)
	for p := range freqs {
		freqs[p] = 1.6 + 0.2*float64(p)
	}

	// Feature columns: a random non-empty subset of the eight Table I
	// features in random order (occasionally with a duplicate — the
	// pipeline must tolerate it), plus up to three interaction products
	// whose operands may fall outside the base set.
	nf := 1 + r.Intn(8)
	perm := r.Perm(8)
	feats := append([]int(nil), perm[:nf]...)
	if r.Float64() < 0.15 {
		feats = append(feats, feats[r.Intn(len(feats))])
	}
	var pairs [][2]int
	for i, k := 0, r.Intn(4); i < k; i++ {
		pairs = append(pairs, [2]int{r.Intn(8), r.Intn(8)})
	}
	width := len(feats) + len(pairs)

	dto := map[string]any{
		"format":       1,
		"feature_set":  fmt.Sprintf("rand%d", nf),
		"features":     feats,
		"seed":         r.Uint64(),
		"machine":      "testeq-machine",
		"pstate_freqs": freqs,
		"llc_bytes":    12e6,
		"baselines":    baselines,
	}
	if len(pairs) > 0 {
		dto["interactions"] = pairs
	}

	if r.Intn(2) == 0 {
		// Linear: Eq. 1 folded to width coefficients + a constant.
		dto["technique"] = 0
		coef := make([]float64, width)
		for j := range coef {
			coef[j] = r.Normal(0, 1)
		}
		dto["linear"] = map[string]any{"Coefficients": coef, "Constant": r.Normal(0, 10)}
	} else {
		// Neural: one hidden layer of width 1–MaxHidden (two layers or a
		// non-tanh activation occasionally, to cover the generic compiled
		// path as well as the fused one).
		dto["technique"] = 1
		hidden := []int{1 + r.Intn(g.cfg.MaxHidden)}
		if r.Float64() < 0.2 {
			hidden = append(hidden, 1+r.Intn(16))
		}
		activation := 0
		if r.Float64() < 0.2 {
			activation = 1 + r.Intn(2)
		}
		sizes := append([]int{width}, hidden...)
		sizes = append(sizes, 1)
		nparams := 0
		for l := 0; l+1 < len(sizes); l++ {
			nparams += sizes[l]*sizes[l+1] + sizes[l+1]
		}
		params := make([]float64, nparams)
		for i := range params {
			params[i] = r.Normal(0, 0.8)
		}
		mean := make([]float64, width)
		std := make([]float64, width)
		for j := range mean {
			mean[j] = r.Normal(0, 5)
			std[j] = math.Exp(r.Normal(0, 1))
		}
		dto["net_config"] = map[string]any{
			"Inputs": width, "Hidden": hidden, "Activation": activation, "Seed": 1,
		}
		dto["net_params"] = params
		dto["x_scaler"] = map[string]any{"Mean": mean, "Std": std}
		dto["y_scaler"] = map[string]any{"Mean": r.Normal(100, 30), "Std": math.Exp(r.Normal(1, 1))}
	}
	raw, err := json.Marshal(dto)
	if err != nil {
		panic(fmt.Sprintf("testeq: marshalling generated artefact: %v", err))
	}
	return raw
}

// Model materialises one random model through core.LoadModel, so every
// generated model crosses the same load→compile boundary deployed
// artefacts do.
func (g *Gen) Model() (*core.Model, error) {
	raw := g.Artifact()
	m, err := core.LoadModel(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("testeq: generated artefact rejected: %w (artefact: %s)", err, raw)
	}
	return m, nil
}

// Scenarios draws n random valid scenarios for m: known targets, 0–8
// co-located copies of known apps, in-range P-states.
func (g *Gen) Scenarios(m *core.Model, n int) []features.Scenario {
	apps := m.Apps()
	out := make([]features.Scenario, n)
	for i := range out {
		co := make([]string, g.src.Intn(9))
		for j := range co {
			co[j] = apps[g.src.Intn(len(apps))]
		}
		out[i] = features.Scenario{
			Target: apps[g.src.Intn(len(apps))],
			CoApps: co,
			PState: g.src.Intn(m.PStates()),
		}
	}
	return out
}

// HostileScenarios draws scenarios the model must reject: unknown
// targets or co-apps and out-of-range P-states. Both paths must fail on
// them (error parity is part of equivalence).
func (g *Gen) HostileScenarios(m *core.Model, n int) []features.Scenario {
	apps := m.Apps()
	out := make([]features.Scenario, n)
	for i := range out {
		sc := features.Scenario{Target: apps[g.src.Intn(len(apps))], PState: g.src.Intn(m.PStates())}
		switch g.src.Intn(3) {
		case 0:
			sc.Target = "no-such-app"
		case 1:
			sc.CoApps = []string{apps[0], "no-such-app"}
		default:
			sc.PState = m.PStates() + g.src.Intn(3)
		}
		out[i] = sc
	}
	return out
}

// CheckModel asserts bit-for-bit equivalence of the model's compiled and
// interpreted predict paths on the given scenarios:
//
//   - scalar: Compiled.Predict and the pooled Model.Predict dispatch both
//     reproduce PredictInterpreted exactly (values compared by bits, so
//     NaNs must match too; errors must agree on presence);
//   - batched: Compiled.PredictScenarios and the Model.PredictScenarios
//     dispatch both reproduce PredictScenariosInterpreted exactly, for
//     the full batch and for mixed-width sub-batches re-evaluated
//     through the *same* compiled instance (scratch reuse across batch
//     shapes must not perturb results);
//   - caller-buffer: CheckInto on the valid scenarios.
func CheckModel(tb testing.TB, m *core.Model, scs []features.Scenario) {
	tb.Helper()
	if !m.IsCompiled() {
		tb.Fatalf("model %s did not compile at load", m.Spec)
	}
	c, err := m.Compile()
	if err != nil {
		tb.Fatalf("Compile(%s): %v", m.Spec, err)
	}

	valid := scs[:0:0]
	for _, sc := range scs {
		want, wantErr := m.PredictInterpreted(sc)
		got, gotErr := c.Predict(sc)
		if (wantErr == nil) != (gotErr == nil) {
			tb.Fatalf("%s scalar %+v: error parity broken: interpreted err=%v, compiled err=%v",
				m.Spec, sc, wantErr, gotErr)
		}
		disp, dispErr := m.Predict(sc)
		if (wantErr == nil) != (dispErr == nil) {
			tb.Fatalf("%s scalar %+v: dispatch error parity broken: interpreted err=%v, dispatch err=%v",
				m.Spec, sc, wantErr, dispErr)
		}
		if wantErr != nil {
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			tb.Fatalf("%s scalar %+v: compiled %v != interpreted %v (not bit-identical)",
				m.Spec, sc, got, want)
		}
		if math.Float64bits(disp) != math.Float64bits(want) {
			tb.Fatalf("%s scalar %+v: dispatch %v != interpreted %v (not bit-identical)",
				m.Spec, sc, disp, want)
		}
		valid = append(valid, sc)
	}
	if len(valid) == 0 {
		return
	}
	CheckInto(tb, m, valid)

	// Mixed-width batches through one compiled instance: growing and
	// shrinking the batch exercises scratch reuse across shapes.
	sizes := []int{len(valid), 1, min(3, len(valid)), len(valid)}
	for _, n := range sizes {
		sub := valid[:n]
		want, err := m.PredictScenariosInterpreted(sub)
		if err != nil {
			tb.Fatalf("%s interpreted batch(%d): %v", m.Spec, n, err)
		}
		out := make([]float64, n)
		if err := c.PredictScenarios(sub, out); err != nil {
			tb.Fatalf("%s compiled batch(%d): %v", m.Spec, n, err)
		}
		disp, err := m.PredictScenarios(sub)
		if err != nil {
			tb.Fatalf("%s dispatch batch(%d): %v", m.Spec, n, err)
		}
		for i := range want {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				tb.Fatalf("%s batch(%d) slot %d: compiled %v != interpreted %v (not bit-identical)",
					m.Spec, n, i, out[i], want[i])
			}
			if math.Float64bits(disp[i]) != math.Float64bits(want[i]) {
				tb.Fatalf("%s batch(%d) slot %d: dispatch %v != interpreted %v (not bit-identical)",
					m.Spec, n, i, disp[i], want[i])
			}
		}
	}
}

// CheckInto asserts that Model.PredictScenariosInto agrees with
// Model.PredictScenarios on scs: the same error verdict and, on success,
// exactly the same bits in the caller's buffer; that it refuses a buffer
// of the wrong length; and — for a compiled model, outside the race
// detector, whose sync.Pool drops a share of Puts — that it allocates
// nothing once warm. Unlike CheckModel it accepts a model whose artefact
// defeated the compiler: the entry point serves the interpreted fallback
// too.
func CheckInto(tb testing.TB, m *core.Model, scs []features.Scenario) {
	tb.Helper()
	want, wantErr := m.PredictScenarios(scs)
	out := make([]float64, len(scs)+1)
	for _, n := range []int{len(scs) + 1, len(scs) - 1} {
		if n >= 0 && m.PredictScenariosInto(scs, out[:n]) == nil {
			tb.Fatalf("%s PredictScenariosInto accepted a %d-slot buffer for %d scenarios", m.Spec, n, len(scs))
		}
	}
	out = out[:len(scs)]
	err := m.PredictScenariosInto(scs, out)
	if (wantErr == nil) != (err == nil) {
		tb.Fatalf("%s batch(%d): error parity broken: PredictScenarios err=%v, PredictScenariosInto err=%v",
			m.Spec, len(scs), wantErr, err)
	}
	if wantErr != nil {
		return
	}
	for i := range want {
		if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
			tb.Fatalf("%s slot %d: PredictScenariosInto %v != PredictScenarios %v (not bit-identical)",
				m.Spec, i, out[i], want[i])
		}
	}
	if !m.IsCompiled() || RaceEnabled {
		return
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := m.PredictScenariosInto(scs, out); err != nil {
			tb.Error(err)
		}
	}); n != 0 {
		tb.Fatalf("%s: warm PredictScenariosInto allocates %.1f/op, want 0", m.Spec, n)
	}
}
