package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/simproc"
	"colocmodel/internal/stats"
	"colocmodel/internal/workload"
	"colocmodel/internal/xrand"
)

// The problem-size experiment probes another axis of the portability
// claim: NAS benchmarks come in problem classes (A, B, C …) whose working
// sets and instruction counts grow together. A model trained on one
// problem size sees a *scaled* version of an application as a brand-new
// application — different baseline time, different memory intensity —
// known only through its serial baseline. Does prediction accuracy
// survive the shift?
//
// The answer is range-dependent: 2x targets keep their baseline execution
// times within the span the model trained on and transfer well; 0.5x and
// 4x targets push baseExTime outside the training envelope, and accuracy
// degrades the way any regression degrades under extrapolation. Like the
// microbenchmark experiment, this maps a validity boundary — here along
// the baseline-time axis instead of the memory-behaviour axis.

// ScalingRow is one problem-size factor's transfer accuracy.
type ScalingRow struct {
	// Factor is the work multiplier applied to every target.
	Factor float64
	// Scenarios is the number of evaluated co-locations.
	Scenarios int
	// MPE is NN-F's error against fresh simulation.
	MPE float64
}

// ProblemSizeScaling trains NN-F on the standard 12-core campaign and
// evaluates predictions for ×0.5, ×2 and ×4 scaled variants of three
// representative targets under the training co-runners.
func (s *Suite) ProblemSizeScaling() ([]ScalingRow, error) {
	ds, err := s.Dataset(12)
	if err != nil {
		return nil, err
	}
	spec := simproc.XeonE52697v2()
	proc, err := simproc.New(spec)
	if err != nil {
		return nil, err
	}
	noise := xrand.New(s.cfg.Seed + 6)

	targets := []string{"canneal", "cg", "fluidanimate"}
	factors := []float64{0.5, 2, 4}

	// Scaled variants with measured baselines, appended to a copy of the
	// baseline store.
	aug := &harness.Dataset{
		Machine:     ds.Machine,
		PStateFreqs: ds.PStateFreqs,
		LLCBytes:    ds.LLCBytes,
		Baselines:   map[string]harness.Baseline{},
		Records:     ds.Records,
	}
	for k, v := range ds.Baselines {
		aug.Baselines[k] = v
	}
	scaled := map[float64][]workload.App{}
	for _, f := range factors {
		for _, name := range targets {
			base, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			v, err := base.Scaled(fmt.Sprintf("x%g", f), f)
			if err != nil {
				return nil, err
			}
			scaled[f] = append(scaled[f], v)
		}
		bs, err := harness.CollectBaselines(proc, scaled[f], s.cfg.NoiseSigma, noise)
		if err != nil {
			return nil, err
		}
		for k, v := range bs {
			aug.Baselines[k] = v
		}
	}

	setF, err := features.SetByName("F")
	if err != nil {
		return nil, err
	}
	model, err := core.Train(core.Spec{Technique: core.NeuralNet, FeatureSet: setF, Seed: s.cfg.Seed}, aug, aug.Records)
	if err != nil {
		return nil, err
	}

	var scs []harness.Scenario
	for _, f := range factors {
		for _, target := range scaled[f] {
			for _, co := range workload.TrainingCoApps() {
				for _, k := range []int{3, 7} {
					scs = append(scs, harness.Scenario{Target: target, CoApps: harness.Homogeneous(co, k)})
				}
			}
		}
	}
	measured, err := harness.CollectScenarios(proc, scs, s.cfg.NoiseSigma, noise)
	if err != nil {
		return nil, err
	}
	pes, err := percentErrors(model, measured)
	if err != nil {
		return nil, err
	}
	var out []ScalingRow
	per := len(pes) / len(factors)
	for i, f := range factors {
		out = append(out, ScalingRow{Factor: f, Scenarios: per, MPE: stats.Mean(pes[i*per : (i+1)*per])})
	}
	return out, nil
}

// renderProblemSizeScaling formats the experiment.
func renderProblemSizeScaling(rows []ScalingRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Problem-size scaling: NN-F on rescaled targets (12-core, canneal/cg/fluidanimate)")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "work factor\tscenarios\tMPE")
	for _, r := range rows {
		fmt.Fprintf(w, "%gx\t%d\t%.2f%%\n", r.Factor, r.Scenarios, r.MPE)
	}
	w.Flush()
	return b.String()
}
