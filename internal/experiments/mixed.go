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

// The mixed-training experiment probes a design decision the paper makes
// and defends against [DwF12]: training data is collected from a uniform
// sweep of *homogeneous* co-locations, rather than randomly sampled mixed
// ones. How much accuracy on heterogeneous schedules does that design
// give up, and does augmenting with a modest number of random mixed
// measurements recover it?
//
// Three NN-F variants are evaluated on a held-out set of random
// heterogeneous scenarios (12-core):
//
//	homogeneous:  the paper's Table V campaign only
//	augmented:    Table V plus nAug random mixed measurements
//	mixed-only:   the same number of random mixed measurements as the
//	              Table V campaign contains, none homogeneous ([DwF12]'s
//	              strategy)

// MixedTrainingRow is one training-set variant's accuracy on mixed
// scenarios.
type MixedTrainingRow struct {
	Variant   string
	TrainSize int
	TestMPE   float64
}

// MixedTraining runs the experiment. nAug controls the augmentation
// budget (0 selects 150).
func (s *Suite) MixedTraining(nAug int) ([]MixedTrainingRow, error) {
	if nAug <= 0 {
		nAug = 150
	}
	ds, err := s.Dataset(12)
	if err != nil {
		return nil, err
	}
	spec := simproc.XeonE52697v2()
	proc, err := simproc.New(spec)
	if err != nil {
		return nil, err
	}
	src := xrand.New(s.cfg.Seed + 5)
	targets := workload.All()
	pool := workload.All() // mixed co-runners drawn from all eleven apps
	pstates := []int{0, 1, 2, 3, 4, 5}

	// Training scenarios.
	homScs, homSecs, err := recordsAsScenarios(ds)
	if err != nil {
		return nil, err
	}
	augScenarios, err := harness.RandomMixedScenarios(targets, pool, spec.Cores-1, nAug, pstates, src)
	if err != nil {
		return nil, err
	}
	augMeasured, err := harness.CollectScenarios(proc, augScenarios, s.cfg.NoiseSigma, src)
	if err != nil {
		return nil, err
	}
	mixedOnlyScenarios, err := harness.RandomMixedScenarios(targets, pool, spec.Cores-1, len(homScs), pstates, src)
	if err != nil {
		return nil, err
	}
	mixedOnlyMeasured, err := harness.CollectScenarios(proc, mixedOnlyScenarios, s.cfg.NoiseSigma, src)
	if err != nil {
		return nil, err
	}

	// Held-out heterogeneous test set.
	testScenarios, err := harness.RandomMixedScenarios(targets, pool, spec.Cores-1, 120, pstates, src)
	if err != nil {
		return nil, err
	}
	testMeasured, err := harness.CollectScenarios(proc, testScenarios, s.cfg.NoiseSigma, src)
	if err != nil {
		return nil, err
	}

	setF, err := features.SetByName("F")
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		scs  []features.Scenario
		secs []float64
	}{
		{"homogeneous (Table V)", homScs, homSecs},
		{fmt.Sprintf("augmented (+%d mixed)", nAug),
			append(append([]features.Scenario{}, homScs...), toScenarios(augMeasured)...),
			append(append([]float64{}, homSecs...), toSeconds(augMeasured)...)},
		{"mixed-only ([DwF12]-style)", toScenarios(mixedOnlyMeasured), toSeconds(mixedOnlyMeasured)},
	}
	var out []MixedTrainingRow
	for _, v := range variants {
		m, err := core.TrainScenarios(core.Spec{Technique: core.NeuralNet, FeatureSet: setF, Seed: s.cfg.Seed},
			ds, v.scs, v.secs)
		if err != nil {
			return nil, err
		}
		pes, err := percentErrors(m, testMeasured)
		if err != nil {
			return nil, err
		}
		out = append(out, MixedTrainingRow{Variant: v.name, TrainSize: len(v.scs), TestMPE: stats.Mean(pes)})
	}
	return out, nil
}

// recordsAsScenarios converts the dataset's homogeneous records to
// scenario/label pairs.
func recordsAsScenarios(ds *harness.Dataset) ([]features.Scenario, []float64, error) {
	scs := make([]features.Scenario, len(ds.Records))
	secs := make([]float64, len(ds.Records))
	for i, r := range ds.Records {
		scs[i] = features.ScenarioFromRecord(r)
		secs[i] = r.Seconds
	}
	return scs, secs, nil
}

func toScenarios(ms []harness.MixedRecord) []features.Scenario {
	out := make([]features.Scenario, len(ms))
	for i, m := range ms {
		out[i] = features.Scenario{Target: m.Target, CoApps: m.CoApps, PState: m.PState}
	}
	return out
}

func toSeconds(ms []harness.MixedRecord) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.Seconds
	}
	return out
}

// renderMixedTraining formats the experiment.
func renderMixedTraining(rows []MixedTrainingRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Mixed-training ablation: accuracy on heterogeneous schedules (12-core, NN-F)")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "training data\ttraining size\ttest MPE (mixed scenarios)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.2f%%\n", r.Variant, r.TrainSize, r.TestMPE)
	}
	w.Flush()
	return b.String()
}
