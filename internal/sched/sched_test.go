package sched

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

// trainedModel trains one neural F model on a reduced 6-core dataset.
func trainedModel(t testing.TB) *core.Model {
	t.Helper()
	modelOnce.Do(func() {
		cg, _ := workload.ByName("cg")
		sp, _ := workload.ByName("sp")
		ep, _ := workload.ByName("ep")
		canneal, _ := workload.ByName("canneal")
		plan := harness.Plan{
			Spec:       simproc.XeonE5649(),
			Targets:    []workload.App{cg, canneal, ep},
			CoApps:     []workload.App{cg, sp, ep},
			CoCounts:   []int{1, 2, 3, 5},
			PStates:    []int{0},
			NoiseSigma: 0.005,
			Seed:       3,
		}
		ds, err := harness.Collect(plan)
		if err != nil {
			modelErr = err
			return
		}
		set, _ := features.SetByName("F")
		modelVal, modelErr = core.Train(core.Spec{Technique: core.NeuralNet, FeatureSet: set, Seed: 4}, ds, ds.Records)
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return modelVal
}

func TestObliviousPacksDensely(t *testing.T) {
	spec := simproc.XeonE5649()
	jobs := []string{"cg", "cg", "ep", "ep", "canneal", "canneal", "cg"}
	asg := Oblivious(spec, jobs)
	if asg.MachinesUsed() != 2 {
		t.Fatalf("oblivious used %d machines, want 2", asg.MachinesUsed())
	}
	if placed(asg) != len(jobs) {
		t.Fatalf("job count %d, want %d", placed(asg), len(jobs))
	}
	if len(asg[0]) != spec.Cores {
		t.Fatalf("first machine has %d jobs, want full %d", len(asg[0]), spec.Cores)
	}
}

func TestObliviousEmpty(t *testing.T) {
	asg := Oblivious(simproc.XeonE5649(), nil)
	if asg.MachinesUsed() != 0 || placed(asg) != 0 {
		t.Fatal("empty job list produced machines")
	}
}

func TestGreedyAwareRespectsQoS(t *testing.T) {
	m := trainedModel(t)
	spec := simproc.XeonE5649()
	jobs := []string{"cg", "cg", "cg", "ep", "ep", "ep", "canneal", "canneal"}
	asg, err := GreedyAware(m, spec, jobs, AwareConfig{MaxSlowdown: 1.10, PState: 0})
	if err != nil {
		t.Fatal(err)
	}
	if placed(asg) != len(jobs) {
		t.Fatalf("placed %d of %d jobs", placed(asg), len(jobs))
	}
	// Predicted worst slowdown within bound on every machine.
	for mi, residents := range asg {
		worst, err := worstPredictedSlowdown(m, residents, 0)
		if err != nil {
			t.Fatal(err)
		}
		if worst > 1.10+1e-9 {
			t.Fatalf("machine %d predicted worst %v exceeds bound", mi, worst)
		}
	}
}

func TestGreedyAwareUsesFewerMachinesWithLooserBound(t *testing.T) {
	m := trainedModel(t)
	spec := simproc.XeonE5649()
	jobs := []string{"cg", "cg", "cg", "canneal", "canneal", "ep", "ep", "ep"}
	tight, err := GreedyAware(m, spec, jobs, AwareConfig{MaxSlowdown: 1.05, PState: 0})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := GreedyAware(m, spec, jobs, AwareConfig{MaxSlowdown: 1.60, PState: 0})
	if err != nil {
		t.Fatal(err)
	}
	if loose.MachinesUsed() > tight.MachinesUsed() {
		t.Fatalf("loose bound used more machines (%d) than tight (%d)",
			loose.MachinesUsed(), tight.MachinesUsed())
	}
}

// Every input is checked before the first placement: a lone job is never
// predicted, so a bad P-state, spec or app must not slip through on one.
func TestGreedyAwareErrors(t *testing.T) {
	m := trainedModel(t)
	six := simproc.XeonE5649()
	for _, c := range []struct {
		name  string
		model *core.Model
		spec  simproc.Spec
		jobs  []string
		cfg   AwareConfig
	}{
		{"nil model", nil, six, []string{"cg"}, AwareConfig{MaxSlowdown: 1.2}},
		{"bound below 1", m, six, []string{"cg"}, AwareConfig{MaxSlowdown: 0.9}},
		{"bound 1", m, six, []string{"cg"}, AwareConfig{MaxSlowdown: 1.0}},
		{"NaN bound", m, six, []string{"cg", "ep"}, AwareConfig{MaxSlowdown: math.NaN()}},
		{"unknown app", m, six, []string{"ghost"}, AwareConfig{MaxSlowdown: 1.2}},
		{"app without baseline", m, six, []string{"lu"}, AwareConfig{MaxSlowdown: 1.5}},
		{"P-state past the model", m, six, []string{"cg"}, AwareConfig{MaxSlowdown: 1.5, PState: 99}},
		{"negative P-state", m, six, []string{"cg"}, AwareConfig{MaxSlowdown: 1.5, PState: -1}},
		{"P-state with two jobs", m, six, []string{"cg", "ep"}, AwareConfig{MaxSlowdown: 1.5, PState: 99}},
		{"zero spec", m, simproc.Spec{}, []string{"cg"}, AwareConfig{MaxSlowdown: 1.5}},
	} {
		if asg, err := GreedyAware(c.model, c.spec, c.jobs, c.cfg); err == nil {
			t.Errorf("%s: accepted, assignment %v", c.name, asg)
		}
	}
}

func TestGreedyAwareMachineCap(t *testing.T) {
	m := trainedModel(t)
	spec := simproc.XeonE5649()
	jobs := []string{"cg", "cg", "cg", "cg"}
	asg, err := GreedyAware(m, spec, jobs, AwareConfig{MaxSlowdown: 1.01, PState: 0, MaxMachines: 1})
	if err != nil {
		t.Fatal(err)
	}
	if asg.MachinesUsed() != 1 {
		t.Fatalf("capped fleet used %d machines", asg.MachinesUsed())
	}
	if placed(asg) != 4 {
		t.Fatalf("placed %d jobs", placed(asg))
	}
}

func TestMeasureReportsViolations(t *testing.T) {
	spec := simproc.XeonE5649()
	// Six cg on one machine: heavy contention, tiny bound -> violations.
	asg := Assignment{{"cg", "cg", "cg", "cg", "cg", "cg"}}
	ev, err := Measure(spec, asg, 0, 1.01)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Violations == 0 {
		t.Fatal("dense cg packing produced no violations at 1% bound")
	}
	if ev.WorstSlowdown <= 1.05 {
		t.Fatalf("worst slowdown %v implausibly low", ev.WorstSlowdown)
	}
	if ev.MachinesUsed != 1 || len(ev.Outcomes) != 6 {
		t.Fatalf("evaluation shape: %+v", ev)
	}
	if ev.MeanSlowdown <= 1 {
		t.Fatalf("mean slowdown %v", ev.MeanSlowdown)
	}
}

func TestMeasureErrors(t *testing.T) {
	spec := simproc.XeonE5649()
	if _, err := Measure(spec, Assignment{{"cg", "cg", "cg", "cg", "cg", "cg", "cg"}}, 0, 1.2); err == nil {
		t.Fatal("overfull machine accepted")
	}
	if _, err := Measure(spec, Assignment{{"ghost"}}, 0, 1.2); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestAwareBeatsObliviousOnQoS(t *testing.T) {
	if testing.Short() {
		t.Skip("scheduling comparison is slow")
	}
	m := trainedModel(t)
	spec := simproc.XeonE5649()
	// A mix dominated by memory-intensive jobs.
	jobs := []string{"cg", "cg", "cg", "cg", "ep", "ep", "ep", "ep", "canneal", "canneal", "canneal", "canneal"}
	const bound = 1.15

	// The same jobs, heaviest first by baseline memory intensity.
	sorted := []string{"cg", "cg", "cg", "cg", "canneal", "canneal", "canneal", "canneal", "ep", "ep", "ep", "ep"}
	awareAsg, err := GreedyAware(m, spec, sorted, AwareConfig{MaxSlowdown: bound, PState: 0})
	if err != nil {
		t.Fatal(err)
	}
	obliviousAsg := Oblivious(spec, jobs)

	aware, err := Measure(spec, awareAsg, 0, bound)
	if err != nil {
		t.Fatal(err)
	}
	oblivious, err := Measure(spec, obliviousAsg, 0, bound)
	if err != nil {
		t.Fatal(err)
	}
	if aware.Violations >= oblivious.Violations && aware.WorstSlowdown >= oblivious.WorstSlowdown {
		t.Fatalf("aware scheduling no better: aware %d violations/worst %.3f vs oblivious %d/%.3f",
			aware.Violations, aware.WorstSlowdown, oblivious.Violations, oblivious.WorstSlowdown)
	}
}

func TestSimulateBatchPackFirst(t *testing.T) {
	spec := simproc.XeonE5649()
	jobs := []string{"cg", "cg", "ep", "ep", "canneal", "canneal", "ft", "sp"}
	res, err := SimulateBatch(spec, jobs, BatchConfig{
		Machines: 2, PState: 0, Policy: PackFirst, MaxSlowdown: 1.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(jobs) {
		t.Fatalf("completed %d of %d", len(res.Jobs), len(jobs))
	}
	if res.MakespanSeconds <= 0 || res.EnergyJ <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	// Completion order is sorted.
	for i := 1; i < len(res.Jobs); i++ {
		if res.Jobs[i].FinishSeconds < res.Jobs[i-1].FinishSeconds {
			t.Fatal("jobs not sorted by finish time")
		}
	}
	for _, j := range res.Jobs {
		if j.Slowdown < 0.99 {
			t.Fatalf("%s slowdown %v below 1", j.Job, j.Slowdown)
		}
		if j.StartSeconds < 0 || j.FinishSeconds <= j.StartSeconds {
			t.Fatalf("%s has invalid interval [%v, %v]", j.Job, j.StartSeconds, j.FinishSeconds)
		}
	}
	// 8 jobs on 2x6 cores: everything starts immediately under PackFirst.
	for _, j := range res.Jobs {
		if j.StartSeconds != 0 {
			t.Fatalf("%s deferred under PackFirst with free cores", j.Job)
		}
	}
}

func TestSimulateBatchQueueing(t *testing.T) {
	// More jobs than cores: later jobs must wait for completions.
	spec := simproc.XeonE5649()
	jobs := make([]string, 9)
	for i := range jobs {
		jobs[i] = "ft"
	}
	res, err := SimulateBatch(spec, jobs, BatchConfig{Machines: 1, PState: 0, Policy: PackFirst})
	if err != nil {
		t.Fatal(err)
	}
	deferred := 0
	for _, j := range res.Jobs {
		if j.StartSeconds > 0 {
			deferred++
		}
	}
	if deferred != 3 {
		t.Fatalf("%d jobs deferred, want 3 (9 jobs on 6 cores)", deferred)
	}
}

func TestSimulateBatchAwareReducesViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("batch comparison is slow")
	}
	m := trainedModel(t)
	spec := simproc.XeonE5649()
	jobs := []string{"cg", "cg", "cg", "cg", "ep", "ep", "ep", "ep", "canneal", "canneal"}
	const bound = 1.15
	packed, err := SimulateBatch(spec, jobs, BatchConfig{
		Machines: 2, PState: 0, Policy: PackFirst, MaxSlowdown: bound,
	})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := SimulateBatch(spec, jobs, BatchConfig{
		Machines: 2, PState: 0, Policy: AwareSpread, Model: m, MaxSlowdown: bound,
	})
	if err != nil {
		t.Fatal(err)
	}
	if aware.Violations > packed.Violations {
		t.Fatalf("aware policy has more violations: %d vs %d", aware.Violations, packed.Violations)
	}
	if aware.WorstSlowdown > packed.WorstSlowdown+0.02 {
		t.Fatalf("aware worst slowdown %v above packed %v", aware.WorstSlowdown, packed.WorstSlowdown)
	}
}

func TestSimulateBatchErrors(t *testing.T) {
	spec := simproc.XeonE5649()
	if _, err := SimulateBatch(spec, nil, BatchConfig{Machines: 1}); err == nil {
		t.Fatal("no jobs accepted")
	}
	if _, err := SimulateBatch(spec, []string{"cg"}, BatchConfig{Machines: 0}); err == nil {
		t.Fatal("no machines accepted")
	}
	if _, err := SimulateBatch(spec, []string{"ghost"}, BatchConfig{Machines: 1}); err == nil {
		t.Fatal("unknown job accepted")
	}
	if _, err := SimulateBatch(spec, []string{"cg"}, BatchConfig{Machines: 1, Policy: AwareSpread}); err == nil {
		t.Fatal("aware policy without model accepted")
	}
	m := trainedModel(t)
	if _, err := SimulateBatch(spec, []string{"cg"}, BatchConfig{Machines: 1, Policy: AwareSpread, Model: m, MaxSlowdown: 0.5}); err == nil {
		t.Fatal("bad bound accepted")
	}
	if _, err := SimulateBatch(spec, []string{"cg"}, BatchConfig{Machines: 1, Policy: AwareSpread, Model: m, MaxSlowdown: math.NaN()}); err == nil {
		t.Fatal("NaN bound accepted")
	}
	if _, err := SimulateBatch(spec, []string{"cg"}, BatchConfig{Machines: 1, Policy: BatchPolicy(9)}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestSteadyRatesConsistentWithBaseline(t *testing.T) {
	// One app alone: SteadyRates must match the baseline run's IPS.
	proc, err := simproc.New(simproc.XeonE5649())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := workload.ByName("ft")
	rates, err := proc.SteadyRates([]workload.App{app}, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := proc.RunBaseline(app, 0)
	if err != nil {
		t.Fatal(err)
	}
	baseIPS := app.Instructions / base.TargetSeconds
	if rates[0] < baseIPS*0.95 || rates[0] > baseIPS*1.05 {
		t.Fatalf("steady rate %v vs baseline IPS %v", rates[0], baseIPS)
	}
}

// placed counts the jobs an assignment placed.
func placed(a Assignment) int {
	n := 0
	for _, m := range a {
		n += len(m)
	}
	return n
}
