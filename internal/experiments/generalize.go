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

// The generalisation experiment tests the claim of Section IV-B3: the
// training data is "designed to be able to both predict between the
// training data's gaps in the sample space, and extend beyond the set of
// four co-location applications available to the training data and be
// able to make predictions about applications that it has not seen
// previously."
//
// Three scenario families, none of which appear in the Table V training
// data:
//
//   - gap:    homogeneous co-runners drawn from the four training co-apps
//     but at co-location counts the 12-core campaign skips (4, 6, 8, 10);
//   - unseen: homogeneous co-runners that are never co-apps in training
//     (canneal, streamcluster, lu, blackscholes);
//   - mixed:  heterogeneous co-runner sets mixing classes, which the
//     harness never generates.

// GeneralizationCase is one out-of-sample scenario family's accuracy.
type GeneralizationCase struct {
	// Family is "gap", "unseen" or "mixed".
	Family string
	// Scenarios is the number of evaluated scenarios.
	Scenarios int
	// MPE is the mean absolute percent error of NN-F predictions against
	// fresh simulator ground truth.
	MPE float64
	// WorstErr is the largest absolute percent error observed.
	WorstErr float64
}

// Generalization trains NN-F on the 12-core machine's full Table V
// dataset and measures it on the three out-of-sample families.
func (s *Suite) Generalization() ([]GeneralizationCase, error) {
	ds, err := s.Dataset(12)
	if err != nil {
		return nil, err
	}
	setF, err := features.SetByName("F")
	if err != nil {
		return nil, err
	}
	model, err := core.Train(core.Spec{Technique: core.NeuralNet, FeatureSet: setF, Seed: s.cfg.Seed}, ds, ds.Records)
	if err != nil {
		return nil, err
	}
	proc, err := simproc.New(simproc.XeonE52697v2())
	if err != nil {
		return nil, err
	}

	// Measuring unseen co-runners needs their baselines, which the
	// Table V campaign already collected only for targets; every app is
	// a target, so all baselines exist in ds.
	apps := map[string]workload.App{}
	for _, a := range workload.All() {
		apps[a.Name] = a
	}
	families := map[string][]harness.Scenario{}

	// Gap counts: training uses {1,2,3,5,7,9,11}; test 4, 6, 8, 10.
	for _, target := range []string{"canneal", "fluidanimate", "cg"} {
		for _, co := range []string{"cg", "sp"} {
			for _, k := range []int{4, 6, 8, 10} {
				families["gap"] = append(families["gap"], harness.Scenario{Target: apps[target], CoApps: harness.Homogeneous(apps[co], k)})
			}
		}
	}
	// Unseen co-runners at trained counts.
	for _, target := range []string{"canneal", "ft", "ep"} {
		for _, co := range []string{"streamcluster", "canneal", "lu", "blackscholes"} {
			if co == target {
				continue
			}
			for _, k := range []int{2, 5, 9} {
				families["unseen"] = append(families["unseen"], harness.Scenario{Target: apps[target], CoApps: harness.Homogeneous(apps[co], k)})
			}
		}
	}
	// Heterogeneous mixes.
	mixes := [][]string{
		{"cg", "ep"},
		{"cg", "sp", "ep"},
		{"cg", "cg", "sp", "fluidanimate", "ep"},
		{"streamcluster", "sp", "blackscholes"},
		{"cg", "canneal", "lu", "ep", "ep", "sp", "mg"},
	}
	for _, target := range []string{"canneal", "sp", "bodytrack"} {
		for _, mix := range mixes {
			co := make([]workload.App, len(mix))
			for i, name := range mix {
				co[i] = apps[name]
			}
			families["mixed"] = append(families["mixed"], harness.Scenario{Target: apps[target], CoApps: co})
		}
	}

	fams := []string{"gap", "unseen", "mixed"}
	var scs []harness.Scenario
	for _, fam := range fams {
		scs = append(scs, families[fam]...)
	}
	measured, err := harness.CollectScenarios(proc, scs, s.cfg.NoiseSigma, xrand.New(s.cfg.Seed+3))
	if err != nil {
		return nil, err
	}
	pes, err := percentErrors(model, measured)
	if err != nil {
		return nil, err
	}
	var out []GeneralizationCase
	for _, fam := range fams {
		famPEs := pes[:len(families[fam])]
		pes = pes[len(famPEs):]
		worst := 0.0
		for _, pe := range famPEs {
			if pe > worst {
				worst = pe
			}
		}
		out = append(out, GeneralizationCase{
			Family:    fam,
			Scenarios: len(famPEs),
			MPE:       stats.Mean(famPEs),
			WorstErr:  worst,
		})
	}
	return out, nil
}

// renderGeneralization formats the generalisation experiment.
func renderGeneralization(cases []GeneralizationCase) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Generalization (Section IV-B3 claim): NN-F on out-of-sample scenarios (12-core)")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "family\tscenarios\tMPE\tworst error")
	for _, c := range cases {
		fmt.Fprintf(w, "%s\t%d\t%.2f%%\t%.2f%%\n", c.Family, c.Scenarios, c.MPE, c.WorstErr)
	}
	w.Flush()
	return b.String()
}
