// Package testeq is the compiled-vs-interpreted equivalence harness: a
// seeded random model generator plus bit-for-bit assertion helpers that
// prove a model's compiled predict program (internal/core/compile.go)
// reproduces the interpreted reference path exactly through every entry
// point — Predict, PredictScenarios and PredictIDsInto — across
// techniques, widths and P-state counts.
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
// widths 1–64, 1–8 P-states, 2–6 applications and optional interaction
// columns.
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
		// Neural: one tanh hidden layer of width 1–MaxHidden; at width 1
		// mlp's batched pass takes a dot product per row where the
		// compiled one takes a GEMM.
		dto["technique"] = 1
		hidden := 1 + r.Intn(g.cfg.MaxHidden)
		nparams := hidden*(width+2) + 1
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
			"Inputs": width, "Hidden": []int{hidden}, "Activation": 0, "Seed": 1,
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

// CheckModel asserts that the model's pooled entry points reproduce the
// interpreted reference bit for bit (values compared by bits, so NaNs
// must match too) and agree with it on whether each input fails:
//
//   - Predict against PredictInterpreted on every scenario, and — outside
//     the race detector, whose sync.Pool drops a share of Puts — a warm
//     Predict allocates nothing;
//   - PredictScenarios against PredictScenariosInterpreted on the whole
//     input, hostile scenarios included, and on valid batches of several
//     widths, growing and shrinking so the pooled scratch is reused
//     across batch shapes;
//   - PredictIDsInto through checkIDs.
func CheckModel(tb testing.TB, m *core.Model, scs []features.Scenario) {
	tb.Helper()
	valid := scs[:0:0]
	for _, sc := range scs {
		want, wantErr := m.PredictInterpreted(sc)
		got, err := m.Predict(sc)
		if (wantErr == nil) != (err == nil) {
			tb.Fatalf("%s scalar %+v: error parity broken: interpreted err=%v, Predict err=%v",
				m.Spec, sc, wantErr, err)
		}
		if wantErr != nil {
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			tb.Fatalf("%s scalar %+v: Predict %v != interpreted %v (not bit-identical)",
				m.Spec, sc, got, want)
		}
		valid = append(valid, sc)
	}
	checkIDs(tb, m, scs)
	checkBatch(tb, m, scs)
	if len(valid) == 0 {
		return
	}
	for _, n := range []int{len(valid), 1, min(3, len(valid)), len(valid)} {
		checkBatch(tb, m, valid[:n])
	}
	if RaceEnabled {
		return
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := m.Predict(valid[0]); err != nil {
			tb.Error(err)
		}
	}); n != 0 {
		tb.Fatalf("%s: warm Predict allocates %.1f/op, want 0", m.Spec, n)
	}
}

// checkBatch asserts that PredictScenarios agrees with
// PredictScenariosInterpreted on scs: the same error verdict and, on
// success, the same bits in every slot.
func checkBatch(tb testing.TB, m *core.Model, scs []features.Scenario) {
	tb.Helper()
	want, wantErr := m.PredictScenariosInterpreted(scs)
	got, err := m.PredictScenarios(scs)
	if (wantErr == nil) != (err == nil) {
		tb.Fatalf("%s batch(%d): error parity broken: interpreted err=%v, PredictScenarios err=%v",
			m.Spec, len(scs), wantErr, err)
	}
	if wantErr != nil {
		return
	}
	if len(got) != len(want) {
		tb.Fatalf("%s batch(%d): PredictScenarios returned %d slots", m.Spec, len(scs), len(got))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			tb.Fatalf("%s batch(%d) slot %d: PredictScenarios %v != interpreted %v (not bit-identical)",
				m.Spec, len(scs), i, got[i], want[i])
		}
	}
}

// checkIDs asserts that the id entry point, Model.PredictIDsInto, is the
// interpreted path on the same applications. Every scenario is resolved
// through AppID (an unknown name becomes id -1), and rows naming ids -1
// and len(Apps()) as target and as co-app are added. Each row alone must
// agree with PredictInterpreted on the scenario its ids name — on the
// error verdict and, on success, bit for bit — where an id outside the
// space names an application no baseline has. The rows that succeed must
// give the same bits as one batch, a buffer of the wrong length must be
// refused, and — outside the race detector — a warm call must allocate
// nothing.
func checkIDs(tb testing.TB, m *core.Model, scs []features.Scenario) {
	tb.Helper()
	apps := m.Apps()
	if len(apps) == 0 {
		tb.Fatalf("%s has no applications", m.Spec)
	}
	id := func(name string) int32 {
		if id, ok := m.AppID(name); ok {
			return id
		}
		return -1
	}
	name := func(id int32) string {
		if id >= 0 && int(id) < len(apps) {
			return apps[id]
		}
		return apps[len(apps)-1] + "\x00" // sorts after every app, so no baseline has it
	}
	var rows []core.IDScenario
	for _, sc := range scs {
		row := core.IDScenario{Target: id(sc.Target), CoApps: make([]int32, len(sc.CoApps)), PState: sc.PState}
		for i, a := range sc.CoApps {
			row.CoApps[i] = id(a)
		}
		rows = append(rows, row)
	}
	for _, bad := range []int32{-1, int32(len(apps))} {
		rows = append(rows,
			core.IDScenario{Target: bad},
			core.IDScenario{Target: 0, CoApps: []int32{0, bad}})
	}

	var valid []core.IDScenario
	var want []float64
	one := make([]float64, 1)
	for _, row := range rows {
		sc := features.Scenario{Target: name(row.Target), CoApps: make([]string, len(row.CoApps)), PState: row.PState}
		for i, co := range row.CoApps {
			sc.CoApps[i] = name(co)
		}
		ref, refErr := m.PredictInterpreted(sc)
		err := m.PredictIDsInto([]core.IDScenario{row}, one)
		if (refErr == nil) != (err == nil) {
			tb.Fatalf("%s ids %+v: error parity broken: interpreted err=%v, PredictIDsInto err=%v",
				m.Spec, row, refErr, err)
		}
		if refErr != nil {
			continue
		}
		if math.Float64bits(one[0]) != math.Float64bits(ref) {
			tb.Fatalf("%s ids %+v: PredictIDsInto %v != interpreted %v (not bit-identical)", m.Spec, row, one[0], ref)
		}
		valid = append(valid, row)
		want = append(want, ref)
	}
	if len(valid) == 0 {
		return
	}
	out := make([]float64, len(valid)+1)
	if m.PredictIDsInto(valid, out) == nil {
		tb.Fatalf("%s PredictIDsInto accepted a %d-slot buffer for %d rows", m.Spec, len(out), len(valid))
	}
	out = out[:len(valid)]
	if err := m.PredictIDsInto(valid, out); err != nil {
		tb.Fatalf("%s ids batch(%d): %v", m.Spec, len(valid), err)
	}
	for i := range want {
		if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
			tb.Fatalf("%s ids batch(%d) slot %d: PredictIDsInto %v != interpreted %v (not bit-identical)",
				m.Spec, len(valid), i, out[i], want[i])
		}
	}
	if RaceEnabled {
		return
	}
	for _, n := range []int{1, len(valid)} {
		if a := testing.AllocsPerRun(20, func() {
			if err := m.PredictIDsInto(valid[:n], out[:n]); err != nil {
				tb.Error(err)
			}
		}); a != 0 {
			tb.Fatalf("%s: warm PredictIDsInto of %d rows allocates %.1f/op, want 0", m.Spec, n, a)
		}
	}
}
