package energy

import (
	"math"
	"sync"
	"testing"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

var (
	modelOnce sync.Once
	modelVal  *core.Model
	modelErr  error
)

func trainedModel(t testing.TB) *core.Model {
	t.Helper()
	modelOnce.Do(func() {
		cg, _ := workload.ByName("cg")
		ep, _ := workload.ByName("ep")
		canneal, _ := workload.ByName("canneal")
		plan := harness.Plan{
			Spec:       simproc.XeonE5649(),
			Targets:    []workload.App{cg, canneal, ep},
			CoApps:     []workload.App{cg, ep},
			CoCounts:   []int{1, 3, 5},
			PStates:    []int{0, 2, 4},
			NoiseSigma: 0.005,
			Seed:       8,
		}
		ds, err := harness.Collect(plan)
		if err != nil {
			modelErr = err
			return
		}
		set, _ := features.SetByName("F")
		modelVal, modelErr = core.Train(core.Spec{Technique: core.NeuralNet, FeatureSet: set, Seed: 6}, ds, ds.Records)
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return modelVal
}

func TestNewEstimatorValidates(t *testing.T) {
	if _, err := NewEstimator(simproc.Spec{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := NewEstimator(simproc.XeonE5649()); err != nil {
		t.Fatal(err)
	}
}

func TestPredictTargetEnergy(t *testing.T) {
	m := trainedModel(t)
	e, _ := NewEstimator(simproc.XeonE5649())
	sc := features.Scenario{Target: "canneal", CoApps: []string{"cg", "cg", "cg"}, PState: 0}
	est, err := PredictTargetEnergy(m, e, sc)
	if err != nil {
		t.Fatal(err)
	}
	if est.PredictedSeconds <= est.BaselineSeconds {
		t.Fatalf("co-located time %v not above baseline %v", est.PredictedSeconds, est.BaselineSeconds)
	}
	if est.TargetEnergyJ <= 0 || est.BaselineEnergyJ <= 0 {
		t.Fatalf("non-positive energies: %+v", est)
	}
	if est.InterferenceOverheadJ <= 0 {
		t.Fatalf("interference overhead %v not positive for a slowed-down target", est.InterferenceOverheadJ)
	}
	if est.ConsolidationSavingJ <= 0 {
		t.Fatalf("consolidation saving %v not positive with co-runners", est.ConsolidationSavingJ)
	}
	// Accounting identity.
	got := est.BaselineEnergyJ + est.InterferenceOverheadJ - est.ConsolidationSavingJ
	if math.Abs(got-est.TargetEnergyJ) > 1e-6*est.TargetEnergyJ {
		t.Fatalf("energy identity violated: %v vs %v", got, est.TargetEnergyJ)
	}
}

func TestPredictTargetEnergyErrors(t *testing.T) {
	m := trainedModel(t)
	e, _ := NewEstimator(simproc.XeonE5649())
	if _, err := PredictTargetEnergy(nil, e, features.Scenario{}); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := PredictTargetEnergy(m, nil, features.Scenario{}); err == nil {
		t.Fatal("nil estimator accepted")
	}
	tooMany := make([]string, 6)
	for i := range tooMany {
		tooMany[i] = "ep"
	}
	if _, err := PredictTargetEnergy(m, e, features.Scenario{Target: "canneal", CoApps: tooMany, PState: 0}); err == nil {
		t.Fatal("over-subscription accepted")
	}
	if _, err := PredictTargetEnergy(m, e, features.Scenario{Target: "canneal", PState: 99}); err == nil {
		t.Fatal("bad P-state accepted")
	}
	if _, err := PredictTargetEnergy(m, e, features.Scenario{Target: "ghost", PState: 0}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestSweepPStates(t *testing.T) {
	m := trainedModel(t)
	e, _ := NewEstimator(simproc.XeonE5649())
	sc := features.Scenario{Target: "cg", CoApps: []string{"ep"}}
	ests, err := SweepPStates(m, e, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 6 {
		t.Fatalf("got %d estimates, want 6", len(ests))
	}
	// Execution time must increase monotonically toward lower P-states.
	for i := 1; i < len(ests); i++ {
		if ests[i].PredictedSeconds <= ests[i-1].PredictedSeconds {
			t.Fatalf("P%d predicted %v not above P%d's %v",
				i, ests[i].PredictedSeconds, i-1, ests[i-1].PredictedSeconds)
		}
	}
	if _, err := SweepPStates(m, nil, sc); err == nil {
		t.Fatal("nil estimator accepted")
	}
}

func TestPredictedEnergyTracksSimulatedRAPL(t *testing.T) {
	// End-to-end energy validation: predicted execution time × package
	// power must track the simulator's own package-energy counter within
	// the time-prediction error margin.
	m := trainedModel(t)
	spec := simproc.XeonE5649()
	e, _ := NewEstimator(spec)
	proc, err := simproc.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	canneal, _ := workload.ByName("canneal")
	cg, _ := workload.ByName("cg")

	run, err := proc.RunColocation(canneal, []workload.App{cg, cg, cg}, 0, simproc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	est, err := PredictTargetEnergy(m, e, features.Scenario{Target: "canneal", CoApps: []string{"cg", "cg", "cg"}, PState: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Four active cores at one P-state draw equal power, so the package
	// draws four target shares.
	predictedPkgEnergy := 4 * est.TargetEnergyJ
	rel := math.Abs(predictedPkgEnergy-run.PackageEnergyJ) / run.PackageEnergyJ
	if rel > 0.10 {
		t.Fatalf("predicted package energy %v vs simulated %v (%.1f%% off)",
			predictedPkgEnergy, run.PackageEnergyJ, 100*rel)
	}
}
