package placement

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/sched"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

var (
	modelOnce sync.Once
	modelVal  *core.Model
	modelErr  error
)

// trainedModel trains one neural F model with two P-states, shared by
// every test in the package.
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
			PStates:    []int{0, 1},
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

// benchProblem builds the seeded benchmark fleet: machines homogeneous
// Xeon E5649 nodes, 4 apps per machine drawn round-robin from the model's
// target set.
func benchProblem(t testing.TB, machines int) Problem {
	t.Helper()
	model := trainedModel(t)
	fleet := make([]Machine, machines)
	for i := range fleet {
		fleet[i] = Machine{Spec: simproc.XeonE5649()}
	}
	names := []string{"cg", "canneal", "ep"}
	apps := make([]string, 4*machines)
	for i := range apps {
		apps[i] = names[i%len(names)]
	}
	return Problem{
		Model:    model,
		Machines: fleet,
		Apps:     apps,
		QoSBound: 2.5,
		Seed:     11,
		Beam:     12,
	}
}

// TestOptimizerUsesCompiledPath pins the optimizer's transparent pickup
// of the inference fast path: the shared trained model carries a
// compiled closure, and the batched PredictScenarios call the decision
// engine issues returns bit-for-bit the interpreted reference — so every
// plan scored since the fast path landed is the plan the interpreted
// engine would have scored.
func TestOptimizerUsesCompiledPath(t *testing.T) {
	m := trainedModel(t)
	if !m.IsCompiled() {
		t.Fatal("trained placement model is not compiled")
	}
	var scs []features.Scenario
	for _, target := range m.Apps() {
		for p := 0; p < m.PStates(); p++ {
			scs = append(scs, features.Scenario{Target: target, PState: p},
				features.Scenario{Target: target, CoApps: []string{"cg", "ep", "cg"}, PState: p})
		}
	}
	want, err := m.PredictScenariosInterpreted(scs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.PredictScenarios(scs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compiled batch diverges from interpreted:\n got %v\nwant %v", got, want)
	}
}

func TestOptimizeBeatsPackFirst(t *testing.T) {
	// The acceptance fleet: 16 machines, 64 apps, seeded.
	prob := benchProblem(t, 16)
	ctx := context.Background()
	base, err := PackFirst(ctx, prob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(ctx, prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.TotalDegradation >= base.TotalDegradation {
		t.Fatalf("optimized degradation %.4f not strictly better than pack-first %.4f",
			res.Plan.TotalDegradation, base.TotalDegradation)
	}
	if !res.Plan.Better(base) {
		t.Fatalf("optimized plan (viol=%d obj=%.4f) does not beat pack-first (viol=%d obj=%.4f)",
			res.Plan.QoSViolations, res.Plan.Objective, base.QoSViolations, base.Objective)
	}
	if res.Stats.Scenarios == 0 {
		t.Fatal("search reported zero predicted scenarios")
	}
	if got := len(res.Plan.Apps); got != len(prob.Apps) {
		t.Fatalf("plan covers %d apps, want %d", got, len(prob.Apps))
	}
}

func TestOptimizeDeterministicSoak(t *testing.T) {
	// Same seed + same fleet/apps ⇒ byte-identical plan JSON, three runs.
	prob := benchProblem(t, 8)
	var first []byte
	for run := 0; run < 3; run++ {
		res, err := Optimize(context.Background(), prob, nil)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = js
			if res.Stats.Improvements == 0 {
				t.Fatal("local search found no improving move on the soak fleet")
			}
			continue
		}
		if string(js) != string(first) {
			t.Fatalf("run %d diverged:\n%s\nwant:\n%s", run, js, first)
		}
	}
}

func TestOptimizeIncrementalPlansMonotone(t *testing.T) {
	prob := benchProblem(t, 8)
	var plans []*Plan
	res, err := Optimize(context.Background(), prob, func(p *Plan) {
		plans = append(plans, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The greedy plan plus at least two improvements before the final.
	if len(plans) < 3 {
		t.Fatalf("got %d incremental plans, want >= 3", len(plans))
	}
	for i := 1; i < len(plans); i++ {
		if !plans[i].Better(plans[i-1]) {
			t.Fatalf("plan %d (viol=%d obj=%.6f) does not improve on plan %d (viol=%d obj=%.6f)",
				i, plans[i].QoSViolations, plans[i].Objective,
				i-1, plans[i-1].QoSViolations, plans[i-1].Objective)
		}
	}
	if last := plans[len(plans)-1]; !reflect.DeepEqual(last, res.Plan) {
		t.Fatal("final incremental plan is not the returned plan")
	}
}

func TestOptimizeEnergyObjective(t *testing.T) {
	prob := benchProblem(t, 4)
	prob.Objective = MinEnergy
	res, err := Optimize(context.Background(), prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Objective != res.Plan.TotalEnergyJ {
		t.Fatalf("energy objective %.4f != total energy %.4f", res.Plan.Objective, res.Plan.TotalEnergyJ)
	}
	if res.Plan.TotalEnergyJ <= 0 {
		t.Fatalf("non-positive total energy %v", res.Plan.TotalEnergyJ)
	}
	// With the energy objective and slack QoS, slower P-states are in
	// play: every chosen operating point must still be an allowed one.
	for m, ps := range res.Plan.PStates {
		if ps < 0 || ps >= trainedModel(t).PStates() {
			t.Fatalf("machine %d chose out-of-range P-state %d", m, ps)
		}
	}
}

func TestOptimizeCancelledContextReturnsBestSoFar(t *testing.T) {
	prob := benchProblem(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	res, err := Optimize(ctx, prob, func(*Plan) {
		calls++
		if calls == 1 {
			cancel() // expire mid-search, after the greedy plan exists
		}
	})
	if err != nil {
		t.Fatalf("cancelled search should return best-so-far, got error %v", err)
	}
	if !res.Stats.TimedOut {
		t.Fatal("cancelled search did not report TimedOut")
	}
	if res.Plan == nil || len(res.Plan.Apps) != len(prob.Apps) {
		t.Fatal("cancelled search returned no usable plan")
	}
}

func TestProblemValidation(t *testing.T) {
	model := trainedModel(t)
	ok := Problem{
		Model:    model,
		Machines: []Machine{{Spec: simproc.XeonE5649()}},
		Apps:     []string{"cg"},
	}
	cases := []struct {
		name   string
		mutate func(*Problem)
	}{
		{"nil model", func(p *Problem) { p.Model = nil }},
		{"no machines", func(p *Problem) { p.Machines = nil }},
		{"no apps", func(p *Problem) { p.Apps = nil }},
		{"unknown app", func(p *Problem) { p.Apps = []string{"nosuch"} }},
		{"bad qos", func(p *Problem) { p.QoSBound = 0.5 }},
		{"negative beam", func(p *Problem) { p.Beam = -1 }},
		{"zero cores", func(p *Problem) { p.Machines[0].Cores = -1 }},
		{"too many cores", func(p *Problem) { p.Machines[0].Cores = 99 }},
		{"bad pstate", func(p *Problem) { p.Machines[0].PStates = []int{7} }},
		{"dup pstate", func(p *Problem) { p.Machines[0].PStates = []int{0, 0} }},
		{"overfull", func(p *Problem) {
			p.Apps = make([]string, 7)
			for i := range p.Apps {
				p.Apps[i] = "cg"
			}
			p.Machines[0].Cores = 2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := ok
			p.Machines = append([]Machine(nil), ok.Machines...)
			tc.mutate(&p)
			if _, err := Optimize(context.Background(), p, nil); err == nil {
				t.Fatal("want validation error, got nil")
			} else if !IsInvalid(err) {
				t.Fatalf("error %v does not wrap ErrInvalid", err)
			}
		})
	}
	// The valid base problem must pass.
	if _, err := Optimize(context.Background(), ok, nil); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
}

func TestGreedyPackMatchesSchedGreedyAware(t *testing.T) {
	// /v1/schedule routes through GreedyPack; it must reproduce
	// sched.GreedyAware's assignments exactly (predictions are
	// bit-identical between the scalar and batched paths).
	model := trainedModel(t)
	spec := simproc.XeonE5649()
	jobs := []string{"cg", "cg", "ep", "canneal", "cg", "ep", "canneal", "canneal", "cg", "ep"}
	for _, cfg := range []sched.AwareConfig{
		{MaxSlowdown: 1.3},
		{MaxSlowdown: 2.0},
		{MaxSlowdown: 1.1, MaxMachines: 2},
	} {
		want, err := sched.GreedyAware(model, spec, jobs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GreedyPack(context.Background(), model, spec, jobs, PackConfig{
			MaxSlowdown: cfg.MaxSlowdown,
			PState:      cfg.PState,
			MaxMachines: cfg.MaxMachines,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual([][]string(want), got) {
			t.Fatalf("cfg %+v: GreedyPack %v != sched.GreedyAware %v", cfg, got, want)
		}
	}
}

func TestGreedyPackValidation(t *testing.T) {
	model := trainedModel(t)
	spec := simproc.XeonE5649()
	if _, err := GreedyPack(context.Background(), model, spec, []string{"cg"}, PackConfig{MaxSlowdown: 1.0}); !IsInvalid(err) {
		t.Fatalf("bound 1.0: want ErrInvalid, got %v", err)
	}
	if _, err := GreedyPack(context.Background(), model, spec, []string{"nosuch"}, PackConfig{MaxSlowdown: 1.5}); !IsInvalid(err) {
		t.Fatalf("unknown app: want ErrInvalid, got %v", err)
	}
	if _, err := GreedyPack(context.Background(), model, spec, []string{"cg"}, PackConfig{MaxSlowdown: 1.5, PState: 99}); !IsInvalid(err) {
		t.Fatalf("bad pstate: want ErrInvalid, got %v", err)
	}
}

func BenchmarkPlacementSearch(b *testing.B) {
	for _, machines := range []int{4, 16, 64} {
		prob := benchProblem(b, machines)
		b.Run(map[int]string{4: "fleet4", 16: "fleet16", 64: "fleet64"}[machines], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Optimize(context.Background(), prob, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.Scenarios), "scenarios/op")
			}
		})
	}
	// wide16x4 is the repository benchmark's placement family: one op is
	// one of 128 seeded problems of bench/ops.go's shape over its model,
	// taken in turn, so -benchtime should be a multiple of 128.
	probs := wideProblems(b, 128)
	b.Run("wide16x4", func(b *testing.B) {
		b.ReportAllocs()
		var scenarios, rounds int
		for i := 0; i < b.N; i++ {
			res, err := Optimize(context.Background(), probs[i%len(probs)], nil)
			if err != nil {
				b.Fatal(err)
			}
			scenarios += res.Stats.Scenarios
			rounds += res.Stats.Rounds
		}
		b.ReportMetric(float64(scenarios)/float64(b.N), "scenarios/op")
		b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	})
}
