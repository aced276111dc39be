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

// The microbenchmark-transfer experiment contrasts with [ChD14], which
// built its characterisation from constructed microbenchmarks. The
// methodology here trains on *scientific workloads* (the paper argues
// that is more representative); this experiment asks the converse
// question: does a model trained on the Table V scientific campaign
// predict the behaviour of microbenchmark-style kernels it never saw —
// extreme points of the memory/compute space (serialised pointer chasing,
// pure streaming, dense compute, a small stencil)?
//
// Only the microbenchmarks' serial baselines are measured (the same cost
// any new application pays); all co-location predictions come from the
// scientific model.
//
// The result maps the methodology's validity boundary: kernels whose
// behaviour resembles the scientific training workloads (dgemm,
// ministencil) transfer with single-digit error, while the deliberately
// extreme kernels (pchase's fully serialised misses, stream's bandwidth
// demand beyond any training application) fall outside the learned
// envelope and mispredict badly — quantifying exactly how far "make
// predictions about applications it has not seen previously" (Section
// IV-B3) stretches.

// MicroTransferRow is one microbenchmark's transfer accuracy.
type MicroTransferRow struct {
	// Kernel is the microbenchmark name.
	Kernel string
	// Scenarios is the number of co-location scenarios evaluated.
	Scenarios int
	// MPE is the NN-F mean absolute percent error vs. fresh simulation.
	MPE float64
	// MeanSlowdown is the mean measured slowdown across the scenarios
	// (context for the error magnitude).
	MeanSlowdown float64
}

// MicrobenchmarkTransfer trains NN-F on the 12-core Table V dataset,
// measures the four microbenchmarks' baselines, and evaluates predictions
// for each microbenchmark as a target under the four training co-runners
// at several counts.
func (s *Suite) MicrobenchmarkTransfer() ([]MicroTransferRow, error) {
	ds, err := s.Dataset(12)
	if err != nil {
		return nil, err
	}
	spec := simproc.XeonE52697v2()
	proc, err := simproc.New(spec)
	if err != nil {
		return nil, err
	}
	// Baselines for the microbenchmarks, appended to a copy of the
	// dataset's baseline store so the original suite data stays pristine.
	noise := xrand.New(s.cfg.Seed + 4)
	micro := workload.Microbenchmarks()
	microBase, err := harness.CollectBaselines(proc, micro, s.cfg.NoiseSigma, noise)
	if err != nil {
		return nil, err
	}
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
	for k, v := range microBase {
		aug.Baselines[k] = v
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
	for _, kernel := range micro {
		for _, co := range workload.TrainingCoApps() {
			for _, k := range []int{2, 5, 9} {
				scs = append(scs, harness.Scenario{Target: kernel, CoApps: harness.Homogeneous(co, k)})
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
	var out []MicroTransferRow
	per := len(pes) / len(micro)
	for i, kernel := range micro {
		var slows []float64
		for _, m := range measured[i*per : (i+1)*per] {
			slows = append(slows, m.Seconds/microBase[kernel.Name].SecondsByPState[0])
		}
		out = append(out, MicroTransferRow{
			Kernel:       kernel.Name,
			Scenarios:    per,
			MPE:          stats.Mean(pes[i*per : (i+1)*per]),
			MeanSlowdown: stats.Mean(slows),
		})
	}
	return out, nil
}

// renderMicrobenchmarkTransfer formats the experiment.
func renderMicrobenchmarkTransfer(rows []MicroTransferRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Microbenchmark transfer: scientific-workload model on constructed kernels (12-core, NN-F)")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "kernel\tscenarios\tmean slowdown\tMPE")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%.2f%%\n", r.Kernel, r.Scenarios, r.MeanSlowdown, r.MPE)
	}
	w.Flush()
	return b.String()
}
