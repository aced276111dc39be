package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/linreg"
	"colocmodel/internal/mlp"
)

// A trained model is a deployable artefact: a resource manager trains
// once per machine type and then loads the model wherever scheduling
// decisions are made. Save/LoadModel serialise everything prediction
// needs — the spec, the fitted parameters, the scalers, and the baseline
// store (the model's only data dependency at predict time) — as JSON.

// modelDTO is the serialised form.
type modelDTO struct {
	Format    int                 `json:"format"`
	Technique int                 `json:"technique"`
	SetName   string              `json:"feature_set"`
	Features  []int               `json:"features"`
	Pairs     [][2]int            `json:"interactions,omitempty"`
	Hidden    int                 `json:"hidden_nodes,omitempty"`
	Seed      uint64              `json:"seed"`
	Linear    *linreg.Model       `json:"linear,omitempty"`
	NetConfig *mlp.Config         `json:"net_config,omitempty"`
	NetParams []float64           `json:"net_params,omitempty"`
	XScaler   *features.Scaler    `json:"x_scaler,omitempty"`
	YScaler   *features.VecScaler `json:"y_scaler,omitempty"`

	Machine     string                      `json:"machine"`
	PStateFreqs []float64                   `json:"pstate_freqs"`
	LLCBytes    float64                     `json:"llc_bytes"`
	Baselines   map[string]harness.Baseline `json:"baselines"`
}

// currentModelFormat versions the serialisation.
const currentModelFormat = 1

// ModelFormat reports the artefact format version this build reads and
// writes (surfaced by the serving tier's version endpoint).
func ModelFormat() int { return currentModelFormat }

// Save writes the trained model to w as JSON.
func (m *Model) Save(w io.Writer) error {
	if m.lin == nil && m.net == nil {
		return fmt.Errorf("core: cannot save an untrained model")
	}
	if m.baselines == nil {
		return fmt.Errorf("core: model has no baseline store")
	}
	dto := modelDTO{
		Format:    currentModelFormat,
		Technique: int(m.Spec.Technique),
		SetName:   m.Spec.FeatureSet.Name,
		Hidden:    m.Spec.HiddenNodes,
		Seed:      m.Spec.Seed,
		Linear:    m.lin,
		XScaler:   m.xScaler,
		YScaler:   m.yScaler,

		Machine:     m.baselines.Machine,
		PStateFreqs: m.baselines.PStateFreqs,
		LLCBytes:    m.baselines.LLCBytes,
		Baselines:   m.baselines.Baselines,
	}
	for _, f := range m.Spec.FeatureSet.Features {
		dto.Features = append(dto.Features, int(f))
	}
	for _, p := range m.Spec.FeatureSet.Interactions {
		dto.Pairs = append(dto.Pairs, [2]int{int(p[0]), int(p[1])})
	}
	if m.net != nil {
		cfg := m.net.Config()
		dto.NetConfig = &cfg
		dto.NetParams = m.net.Params()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(dto)
}

// LoadModel reads a model previously written by Save. Artefacts cross an
// untrusted boundary (a serving tier loads whatever file it is pointed
// at), so the decoder rejects unknown format versions, truncated or
// corrupt JSON, out-of-range feature indices, network shapes that do not
// match their parameters, non-finite parameters, non-positive scaler
// deviations, and inconsistent baseline stores with descriptive errors
// instead of producing a model that fails (or worse, mispredicts) later.
func LoadModel(r io.Reader) (*Model, error) {
	dec := json.NewDecoder(r)
	var dto modelDTO
	if err := dec.Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: decoding model (truncated or corrupt artefact?): %w", err)
	}
	if dto.Format != currentModelFormat {
		return nil, fmt.Errorf("core: unsupported model format %d (this build reads format %d)",
			dto.Format, currentModelFormat)
	}
	if len(dto.Features) == 0 {
		return nil, fmt.Errorf("core: model has an empty feature set")
	}
	set := features.Set{Name: dto.SetName}
	for _, f := range dto.Features {
		if !features.Feature(f).Valid() {
			return nil, fmt.Errorf("core: model references unknown feature index %d", f)
		}
		set.Features = append(set.Features, features.Feature(f))
	}
	for _, p := range dto.Pairs {
		if !features.Feature(p[0]).Valid() || !features.Feature(p[1]).Valid() {
			return nil, fmt.Errorf("core: model references unknown interaction feature in %v", p)
		}
		set.Interactions = append(set.Interactions, [2]features.Feature{features.Feature(p[0]), features.Feature(p[1])})
	}
	m := &Model{
		Spec: Spec{
			Technique:   Technique(dto.Technique),
			FeatureSet:  set,
			HiddenNodes: dto.Hidden,
			Seed:        dto.Seed,
		},
		baselines: &harness.Dataset{
			Machine:     dto.Machine,
			PStateFreqs: dto.PStateFreqs,
			LLCBytes:    dto.LLCBytes,
			Baselines:   dto.Baselines,
		},
	}
	if len(m.baselines.Baselines) == 0 {
		return nil, fmt.Errorf("core: model has no baselines")
	}
	if len(dto.PStateFreqs) == 0 {
		return nil, fmt.Errorf("core: model has no P-state table")
	}
	for name, b := range m.baselines.Baselines {
		if len(b.SecondsByPState) != len(dto.PStateFreqs) {
			return nil, fmt.Errorf("core: baseline %q covers %d P-states; machine has %d",
				name, len(b.SecondsByPState), len(dto.PStateFreqs))
		}
		for ps, sec := range b.SecondsByPState {
			if !finite(sec) || sec <= 0 {
				return nil, fmt.Errorf("core: baseline %q has invalid time %v at P%d", name, sec, ps)
			}
		}
	}
	switch m.Spec.Technique {
	case Linear:
		if dto.Linear == nil {
			return nil, fmt.Errorf("core: linear model missing coefficients")
		}
		if len(dto.Linear.Coefficients) != set.Width() {
			return nil, fmt.Errorf("core: linear model has %d coefficients for %d features",
				len(dto.Linear.Coefficients), set.Width())
		}
		if !allFinite(dto.Linear.Coefficients) || !finite(dto.Linear.Constant) {
			return nil, fmt.Errorf("core: linear model has non-finite coefficients")
		}
		m.lin = dto.Linear
	case NeuralNet:
		if dto.NetConfig == nil || dto.NetParams == nil || dto.XScaler == nil || dto.YScaler == nil {
			return nil, fmt.Errorf("core: neural model missing network or scalers")
		}
		if !allFinite(dto.NetParams) {
			return nil, fmt.Errorf("core: neural model has non-finite parameters")
		}
		if err := checkScalers(dto.XScaler, dto.YScaler); err != nil {
			return nil, err
		}
		net, err := mlp.FromParams(*dto.NetConfig, dto.NetParams)
		if err != nil {
			return nil, err
		}
		if net.Config().Inputs != set.Width() {
			return nil, fmt.Errorf("core: network expects %d inputs for %d features",
				net.Config().Inputs, set.Width())
		}
		m.net = net
		m.xScaler = dto.XScaler
		m.yScaler = dto.YScaler
	default:
		return nil, fmt.Errorf("core: unknown technique %d", dto.Technique)
	}
	// Specialise the loaded model into its compiled predict program
	// (compile-on-load). An artefact consistent enough to pass the checks
	// above always compiles; if a shape nonetheless defeats the compiler
	// the model stays on the interpreted path rather than failing the
	// load.
	m.initCompiled()
	return m, nil
}

// checkScalers rejects a standard deviation that FitScaler and
// FitVecScaler never write: one that is not positive. A negative Std
// flips every prediction about the mean and a zero one divides by zero.
// A width mismatch is not checked here: such a model loads and stays on
// the interpreted path.
func checkScalers(x *features.Scaler, y *features.VecScaler) error {
	for j, std := range x.Std {
		if std <= 0 {
			return fmt.Errorf("core: input scaler has standard deviation %v at column %d; it must be positive", std, j)
		}
	}
	if y.Std <= 0 {
		return fmt.Errorf("core: output scaler has standard deviation %v; it must be positive", y.Std)
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func allFinite(vs []float64) bool {
	for _, v := range vs {
		if !finite(v) {
			return false
		}
	}
	return true
}
