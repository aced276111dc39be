package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

// The phase-sensitivity experiment tests a claim from the paper's
// introduction: although applications use memory in varying phases across
// their execution ([SaS13]), "going into such a level of detail is not
// necessary to make accurate predictions" — the models consume only
// run-averaged counters.
//
// We regenerate the 6-core campaign with every application's phase
// amplitude scaled (0× = phase-free, 1× = the calibrated behaviour,
// up to strongly phased) and evaluate NN-F each time. If the claim holds
// on this substrate, accuracy should degrade only mildly as phase
// amplitude grows, because phases average out over a full execution.

// PhaseSensitivityRow is one amplitude setting's accuracy.
type PhaseSensitivityRow struct {
	// Scale multiplies every application's calibrated PhaseAmplitude.
	Scale float64
	// MaxAmplitude is the largest resulting amplitude across apps.
	MaxAmplitude float64
	// TestMPE is NN-F's test error on that campaign.
	TestMPE float64
}

// PhaseSensitivity sweeps phase-amplitude scales on the 6-core machine.
// It uses a reduced partition count (phases only affect collection, not
// the evaluation protocol).
func (s *Suite) PhaseSensitivity(scales []float64) ([]PhaseSensitivityRow, error) {
	if len(scales) == 0 {
		scales = []float64{0, 1, 3, 5}
	}
	setF, err := features.SetByName("F")
	if err != nil {
		return nil, err
	}
	partitions := s.cfg.Partitions / 2
	if partitions < 5 {
		partitions = 5
	}
	var out []PhaseSensitivityRow
	for _, scale := range scales {
		plan := harness.DefaultPlan(simproc.XeonE5649(), s.cfg.Seed)
		plan.NoiseSigma = s.cfg.NoiseSigma
		maxAmp := 0.0
		plan.Targets = scaleAmplitudes(plan.Targets, scale, &maxAmp)
		plan.CoApps = scaleAmplitudes(plan.CoApps, scale, &maxAmp)
		ds, err := harness.Collect(plan)
		if err != nil {
			return nil, err
		}
		res, err := core.Evaluate(core.Spec{Technique: core.NeuralNet, FeatureSet: setF, Seed: s.cfg.Seed},
			ds, core.EvalConfig{Partitions: partitions, Seed: s.cfg.Seed})
		if err != nil {
			return nil, err
		}
		out = append(out, PhaseSensitivityRow{Scale: scale, MaxAmplitude: maxAmp, TestMPE: res.TestMPE})
	}
	return out, nil
}

// scaleAmplitudes returns copies of apps with PhaseAmplitude scaled and
// clamped to the validator's 0.5 ceiling, tracking the maximum.
func scaleAmplitudes(apps []workload.App, scale float64, maxAmp *float64) []workload.App {
	out := make([]workload.App, len(apps))
	for i, a := range apps {
		a.PhaseAmplitude *= scale
		if a.PhaseAmplitude > 0.5 {
			a.PhaseAmplitude = 0.5
		}
		if a.PhaseAmplitude > *maxAmp {
			*maxAmp = a.PhaseAmplitude
		}
		out[i] = a
	}
	return out
}

// renderPhaseSensitivity formats the experiment.
func renderPhaseSensitivity(rows []PhaseSensitivityRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Phase sensitivity: NN-F accuracy vs. application phase amplitude (6-core)")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "amplitude scale\tmax amplitude\tNN-F test MPE")
	for _, r := range rows {
		fmt.Fprintf(w, "%.0fx\t±%.0f%%\t%.2f%%\n", r.Scale, 100*r.MaxAmplitude, r.TestMPE)
	}
	w.Flush()
	return b.String()
}
