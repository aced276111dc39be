package placement

import (
	"context"
	"slices"
	"testing"

	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

// TestRealiseMatchesSimulator holds every realised app to a direct run of
// the simulator: its seconds are RunColocation's with the machine's other
// residents as co-runners in name order, and its baseline, slowdown and
// degradation divide by RunBaseline on the same spec, bit for bit. A
// homogeneous fleet and a mixed 6-core + 12-core fleet with capped cores
// and restricted P-states are both checked.
func TestRealiseMatchesSimulator(t *testing.T) {
	var hetero Problem
	for _, c := range goldenProblems("wide", 0x3a9e, wideModel(t), 8, [][]int{{2, 4}, {1, 3, 5}, {0}}) {
		if c.name == "wide/006-hetero-capped" {
			hetero = c.prob
		}
	}
	for name, prob := range map[string]Problem{"homogeneous": benchProblem(t, 4), "hetero": hetero} {
		res, err := Optimize(context.Background(), prob, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := Realise(prob, res.Plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.EqualFunc(got.Assignments, res.Plan.Assignments, slices.Equal) || !slices.Equal(got.PStates, res.Plan.PStates) {
			t.Fatalf("%s: realised plan %v at %v, optimised %v at %v", name, got.Assignments, got.PStates, res.Plan.Assignments, res.Plan.PStates)
		}
		for i, a := range got.Apps {
			spec := prob.Machines[a.Machine].Spec
			proc, err := simproc.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			residents := slices.Clone(got.Assignments[a.Machine])
			slices.Sort(residents)
			at := slices.Index(residents, a.App)
			var co []workload.App
			for _, r := range slices.Delete(residents, at, at+1) {
				co = append(co, mustApp(t, r))
			}
			target := mustApp(t, a.App)
			run, err := proc.RunColocation(target, co, a.PState, simproc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			base, err := proc.RunBaseline(target, a.PState)
			if err != nil {
				t.Fatal(err)
			}
			p0, err := proc.RunBaseline(target, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := AppPlacement{
				App: a.App, Machine: a.Machine, PState: a.PState,
				PredictedSeconds: run.TargetSeconds,
				BaselineSeconds:  base.TargetSeconds,
				Slowdown:         run.TargetSeconds / base.TargetSeconds,
				Degradation:      run.TargetSeconds / p0.TargetSeconds,
			}
			if a != want {
				t.Errorf("%s: app %d realised %+v, the simulator says %+v", name, i, a, want)
			}
		}
	}
}

func mustApp(t *testing.T, name string) workload.App {
	t.Helper()
	a, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestRealiseRejectsMalformedPlans: a plan that does not fit its problem
// is a client mistake, reported as ErrInvalid before anything runs.
func TestRealiseRejectsMalformedPlans(t *testing.T) {
	prob := benchProblem(t, 2) // eight apps on two 6-core machines
	for m := range prob.Machines {
		prob.Machines[m].PStates = []int{0, 1}
	}
	good, err := PackFirst(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Realise(prob, good); err != nil {
		t.Fatalf("the pack-first plan is refused: %v", err)
	}
	for _, c := range []struct {
		name  string
		spoil func(p *Plan)
	}{
		{"an app missing", func(p *Plan) { p.Apps = p.Apps[1:] }},
		{"a machine beyond the fleet", func(p *Plan) { p.Apps[0].Machine = 2 }},
		{"an over-full machine", func(p *Plan) {
			for i := range p.Apps {
				p.Apps[i].Machine = 0
			}
		}},
		{"a P-state outside the allowed list", func(p *Plan) { p.PStates[1] = 2 }},
		{"another app multiset", func(p *Plan) { p.Apps[0].App = "ep" }},
	} {
		p := &Plan{PStates: slices.Clone(good.PStates), Apps: slices.Clone(good.Apps)}
		c.spoil(p)
		if _, err := Realise(prob, p); !IsInvalid(err) {
			t.Errorf("%s: error %v, want one wrapping ErrInvalid", c.name, err)
		}
	}
}

// TestRealisedViolationConfusion judges NN-F by the plans it yields: on
// the first four benchmark-shaped problems at a 1.15 bound, the
// violations the pack-first and the optimised plans predict against the
// violations they realise on the simulator. A missed violation is an app
// the plan predicts within the bound and the simulator does not; a false
// alarm is the reverse. The optimiser searches the model's dips, so it
// predicts none of the violations it realises.
func TestRealisedViolationConfusion(t *testing.T) {
	type confusion struct{ predicted, realised, missed, falseAlarms int }
	var packed, optimised confusion
	for _, prob := range wideProblems(t, 4) {
		prob.QoSBound = 1.15
		pack, err := PackFirst(context.Background(), prob)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Optimize(context.Background(), prob, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			plan *Plan
			into *confusion
		}{{pack, &packed}, {res.Plan, &optimised}} {
			got, err := Realise(prob, c.plan)
			if err != nil {
				t.Fatal(err)
			}
			c.into.predicted += c.plan.QoSViolations
			c.into.realised += got.QoSViolations
			for i, a := range got.Apps {
				pv, rv := c.plan.Apps[i].Slowdown > prob.QoSBound, a.Slowdown > prob.QoSBound
				if rv && !pv {
					c.into.missed++
				}
				if pv && !rv {
					c.into.falseAlarms++
				}
			}
		}
	}
	if want := (confusion{7, 11, 4, 0}); packed != want {
		t.Errorf("pack-first: %+v, want %+v", packed, want)
	}
	if want := (confusion{0, 6, 6, 0}); optimised != want {
		t.Errorf("optimised: %+v, want %+v", optimised, want)
	}
}
