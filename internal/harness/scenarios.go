package harness

import (
	"fmt"

	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
	"colocmodel/internal/xrand"
)

// The Table V campaign co-locates homogeneous copies of one co-runner at
// a time — that keeps the sample-space sweep tractable and uniform. This
// file adds the complementary capability: measuring explicit, possibly
// heterogeneous scenarios. It serves two purposes: collecting richer
// training data (the mixed-training extension experiment) and measuring
// ground truth for arbitrary schedules.

// Scenario describes one explicit co-location run to measure.
type Scenario struct {
	// Target is the measured application.
	Target workload.App
	// CoApps are the co-located applications (possibly mixed).
	CoApps []workload.App
	// PState is the operating point.
	PState int
}

// Homogeneous returns k copies of app: the co-runner set of one Table V
// measurement.
func Homogeneous(app workload.App, k int) []workload.App {
	out := make([]workload.App, k)
	for i := range out {
		out[i] = app
	}
	return out
}

// MixedRecord is one measured heterogeneous scenario. Unlike Record it
// carries the full co-runner name list.
type MixedRecord struct {
	Machine string
	PState  int
	FreqGHz float64
	Target  string
	CoApps  []string
	// Seconds is the measured (noisy) target execution time.
	Seconds float64
	// TrueSeconds is the noise-free simulated execution time.
	TrueSeconds float64
}

// CollectScenarios measures each scenario on the processor, with the same
// log-normal measurement noise as the main campaign, drawn in scenario
// order.
func CollectScenarios(proc *simproc.Processor, scenarios []Scenario, sigma float64, noise *xrand.Source) ([]MixedRecord, error) {
	if proc == nil {
		return nil, fmt.Errorf("harness: nil processor")
	}
	spec := proc.Spec()
	runs, failed, runErr := sweep(proc, scenarios)
	out := make([]MixedRecord, len(scenarios))
	for i, sc := range scenarios {
		st, err := spec.PStates.State(sc.PState)
		if err == nil && i == failed {
			err = runErr
		}
		if err != nil {
			return nil, fmt.Errorf("harness: scenario %d: %w", i, err)
		}
		names := make([]string, len(sc.CoApps))
		for j, a := range sc.CoApps {
			names[j] = a.Name
		}
		out[i] = MixedRecord{
			Machine:     spec.Name,
			PState:      sc.PState,
			FreqGHz:     st.FreqGHz,
			Target:      sc.Target.Name,
			CoApps:      names,
			Seconds:     applyNoise(runs[i].seconds, sigma, noise),
			TrueSeconds: runs[i].seconds,
		}
	}
	return out, nil
}

// RandomMixedScenarios draws n scenarios with uniformly random targets
// (from targets), random co-runner counts in [1, maxCo], and co-runners
// sampled independently from pool — the random-sampling strategy of
// [DwF12] that the paper contrasts with its uniform sweep.
func RandomMixedScenarios(targets, pool []workload.App, maxCo, n int, pstates []int, src *xrand.Source) ([]Scenario, error) {
	if len(targets) == 0 || len(pool) == 0 {
		return nil, fmt.Errorf("harness: empty targets or pool")
	}
	if maxCo < 1 || n < 1 {
		return nil, fmt.Errorf("harness: need positive maxCo and n")
	}
	if len(pstates) == 0 {
		return nil, fmt.Errorf("harness: no P-states")
	}
	out := make([]Scenario, n)
	for i := range out {
		k := 1 + src.Intn(maxCo)
		co := make([]workload.App, k)
		for j := range co {
			co[j] = pool[src.Intn(len(pool))]
		}
		out[i] = Scenario{
			Target: targets[src.Intn(len(targets))],
			CoApps: co,
			PState: pstates[src.Intn(len(pstates))],
		}
	}
	return out, nil
}
