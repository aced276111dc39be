package placement

import (
	"fmt"
	"slices"

	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

// Realise runs a plan on the simulator the model was learned from and
// returns its realised account in the Plan shape, PredictedSeconds
// holding the simulated seconds. It reads the plan's decisions only
// (each app's Machine and each machine's P-state) and checks them
// against the problem: the problem's apps in input order, each on a
// fleet machine within its cores, every used machine at one of its
// allowed P-states.
//
// Each machine's residents run at its P-state, every resident beside the
// others in id (= name) order. An app's slowdown is over its solo run on
// the same spec at that P-state, its degradation over its solo run at
// P0. The account is the optimizer's own per-machine arithmetic
// (scoreState, then plan) with simulated seconds where the model's
// predictions were, so it compares with the predicted plan field by
// field. Runs are memoised per (spec, P-state, target, co-runner
// multiset): identical residents, and repeated co-locations, share one.
func Realise(prob Problem, plan *Plan) (*Plan, error) {
	np, err := prob.normalize()
	if err != nil {
		return nil, err
	}
	eng, err := newEngine(np.Model, np.Machines, np.Apps, np.Objective, np.QoSBound)
	if err != nil {
		return nil, err
	}
	st := newState(&np, eng)
	if err := st.adopt(plan); err != nil {
		return nil, err
	}
	apps := make([]workload.App, len(np.Model.Apps())) // model app id → application
	for i, id := range eng.appID {
		if apps[id], err = workload.ByName(np.Apps[i]); err != nil {
			return nil, err
		}
	}
	// run simulates target beside co (model app ids, sorted) at P-state ps
	// and returns the target's seconds, once per distinct co-location.
	var simErr error // the first failed run's: later runs are skipped, Realise returns it
	runs := make(map[string]float64)
	run := func(p *simproc.Processor, ps int, target int32, co []int32) float64 {
		key := fmt.Sprintf("%q %d %d %v", p.Spec().Name, ps, target, co)
		if s, ok := runs[key]; ok || simErr != nil {
			return s
		}
		coApps := make([]workload.App, len(co))
		for i, id := range co {
			coApps[i] = apps[id]
		}
		r, err := p.RunColocation(apps[target], coApps, ps, simproc.Options{})
		runs[key], simErr = r.TargetSeconds, err
		return r.TargetSeconds
	}
	for m, mem := range st.members {
		if len(mem) == 0 {
			continue
		}
		p, err := simproc.New(np.Machines[m].Spec)
		if err != nil {
			return nil, err
		}
		ps := plan.PStates[m]
		eng.begin()
		eng.ask(eng.classOf[m], false, mem, -1, -1)
		w := eng.ids // the residents' ids, sorted
		// scoreState reads the engine's baselines: make them this
		// machine's solo runs, at P0 and at its P-state.
		eng.base = make([]float64, len(eng.base))
		var realised []float64 // one per distinct resident, in w's order
		for i, id := range w {
			eng.base[int(id)*eng.pstates] = run(p, 0, id, nil)
			eng.base[int(id)*eng.pstates+ps] = run(p, ps, id, nil)
			if len(w) > 1 && (i == 0 || id != w[i-1]) {
				realised = append(realised, run(p, ps, id, slices.Delete(slices.Clone(w), i, i+1)))
			}
		}
		st.scores[m] = new(machineScore)
		eng.scoreState(st.scores[m], &eng.classes[eng.classOf[m]], slices.Index(np.Machines[m].PStates, ps), w, realised)
	}
	if simErr != nil {
		return nil, simErr
	}
	return st.plan(), nil
}

// adopt takes a plan's decisions into the search state: each app's
// machine, at that machine's P-state. The plan's apps are the problem's,
// in input order, as every plan the optimizer returns lists them; an
// empty machine's P-state is not read.
func (st *state) adopt(plan *Plan) error {
	np := st.prob
	if len(plan.Apps) != len(np.Apps) || len(plan.PStates) != len(np.Machines) {
		return invalidf("plan has %d apps and %d P-states, the problem %d apps on %d machines",
			len(plan.Apps), len(plan.PStates), len(np.Apps), len(np.Machines))
	}
	for i, a := range plan.Apps {
		switch m := a.Machine; {
		case a.App != np.Apps[i]:
			return invalidf("app %d is %q, the problem's is %q", i, a.App, np.Apps[i])
		case m < 0 || m >= len(np.Machines):
			return invalidf("app %d: machine %d out of range [0,%d)", i, m, len(np.Machines))
		case !slices.Contains(np.Machines[m].PStates, plan.PStates[m]):
			return invalidf("machine %d: P-state %d is not one of its allowed %v", m, plan.PStates[m], np.Machines[m].PStates)
		case !st.free(m):
			return invalidf("machine %d: more apps than its %d cores", m, np.Machines[m].Cores)
		}
		st.assign[i] = a.Machine
		st.members[a.Machine] = append(st.members[a.Machine], i)
	}
	return nil
}
