package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
)

// InteractionRow is one model's accuracy in the interaction ablation.
type InteractionRow struct {
	Model   string
	TestMPE float64
}

// InteractionAblation probes *why* the neural-network models beat the
// linear ones: co-location slowdown is approximately multiplicative in the
// baseline execution time, a form a plain linear model cannot express. It
// evaluates, on the 6-core dataset:
//
//   - linear-F            (the paper's linear model)
//   - linear-F+x          (linear with hand-crafted product terms)
//   - neural-net-F        (the paper's best model)
//
// If the crafted interactions recover most of the gap, the NN's advantage
// is primarily the multiplicative structure; the residual gap is its
// ability to learn the saturating nonlinearities (cache occupancy, DRAM
// queueing) no fixed product basis captures.
func (s *Suite) InteractionAblation() ([]InteractionRow, error) {
	ds, err := s.Dataset(6)
	if err != nil {
		return nil, err
	}
	setF, err := features.SetByName("F")
	if err != nil {
		return nil, err
	}
	cfg := core.EvalConfig{Partitions: s.cfg.Partitions, Seed: s.cfg.Seed}
	specs := []core.Spec{
		{Technique: core.Linear, FeatureSet: setF},
		{Technique: core.Linear, FeatureSet: features.WithInteractions(setF)},
		{Technique: core.NeuralNet, FeatureSet: setF, Seed: s.cfg.Seed},
	}
	var out []InteractionRow
	for _, spec := range specs {
		res, err := core.Evaluate(spec, ds, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, InteractionRow{Model: spec.String(), TestMPE: res.TestMPE})
	}
	return out, nil
}

// renderInteractionAblation formats the ablation.
func renderInteractionAblation(rows []InteractionRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Interaction ablation: why the neural network wins (6-core, test MPE)")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "model\ttest MPE")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f%%\n", r.Model, r.TestMPE)
	}
	w.Flush()
	return b.String()
}
