package placement

import (
	"context"
	"fmt"
	"math"
	"testing"

	"colocmodel/internal/dvfs"
	"colocmodel/internal/features"
	"colocmodel/internal/simproc"
	"colocmodel/internal/testeq"
	"colocmodel/internal/xrand"
)

// TestClassIdentityIsExact pins machine classes to the full allowed
// P-state list. The string class key this replaced kept one decimal digit
// per P-state, so on a processor with more than ten operating points
// PStates [1] and [11] were one class sharing one score table.
func TestClassIdentityIsExact(t *testing.T) {
	freqs := make([]float64, 12)
	for i := range freqs {
		freqs[i] = 3.0 - 0.1*float64(i)
	}
	table, err := dvfs.NewTable(freqs, 0.8, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	spec := simproc.XeonE5649()
	spec.PStates = table
	machines := []Machine{
		{Spec: spec, Cores: 6, PStates: []int{1}},
		{Spec: spec, Cores: 6, PStates: []int{11}},
		{Spec: spec, Cores: 6, PStates: []int{1}},
		{Spec: spec, Cores: 5, PStates: []int{1}},
	}
	e, err := newEngine(trainedModel(t), machines, []string{"cg"}, MinDegradation, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(e.classOf), "[0 1 0 2]"; got != want {
		t.Fatalf("classes %s, want %s: P-state lists [1] and [11], and 6 and 5 usable cores, must not share a score table", got, want)
	}
}

// TestRowSharingIsExact drives the engine with seeded rounds of random
// memberships — repeats within and across rounds, two classes, pinned and
// co-optimised — and checks the two halves of row sharing: the model is
// asked for exactly one row per distinct resident per scored P-state of
// every distinct multi-resident membership, and every resident's account
// still carries, bit for bit, the prediction of its own unshared
// scenario.
func TestRowSharingIsExact(t *testing.T) {
	m := trainedModel(t)
	apps := m.Apps()
	machines := []Machine{
		{Spec: simproc.XeonE5649(), Cores: 6, PStates: []int{0, 1, 3}},
		{Spec: simproc.XeonE52697v2(), Cores: 12, PStates: []int{2, 5}},
	}
	e, err := newEngine(m, machines, apps, MinEnergy, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	src := xrand.New(17)
	want := 0
	seen := make(map[string]bool)
	for round := 0; round < 40; round++ {
		e.begin()
		for q := 0; q < 6; q++ {
			class, pin := src.Intn(2), src.Bool(0.25)
			// The engine was built over the sorted app list, so an app's
			// index is its id. The draw is skewed: many repeated residents.
			count := make([]int, len(apps))
			mem := make([]int, src.Intn(machines[class].Cores+1))
			for i := range mem {
				mem[i] = src.Intn(1 + src.Intn(len(apps)))
				count[mem[i]]++
			}
			n := len(mem)
			e.ask(class, pin, mem, -1, -1)
			distinct := 0
			for _, c := range count {
				if c > 0 {
					distinct++
				}
			}
			if key := fmt.Sprint(class, pin, count); n >= 2 && !seen[key] {
				seen[key] = true
				want += distinct * e.states(e.reqs[len(e.reqs)-1])
			}
		}
		scores, err := e.scoreAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for q, sc := range scores {
			r := e.reqs[q]
			w := e.ids[r.lo:r.hi]
			if len(sc.perApp) != len(w) {
				t.Fatalf("round %d request %d: %d accounts for %d residents", round, q, len(sc.perApp), len(w))
			}
			for i, id := range w {
				scn := features.Scenario{Target: apps[id], PState: sc.pstate}
				for j, other := range w {
					if j != i {
						scn.CoApps = append(scn.CoApps, apps[other])
					}
				}
				ref, err := m.BaselineSeconds(apps[id], sc.pstate)
				if len(w) > 1 {
					ref, err = m.Predict(scn)
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := sc.perApp[i].predictedSeconds; math.Float64bits(got) != math.Float64bits(ref) {
					t.Fatalf("round %d request %d resident %d: account carries %v, its own scenario %+v predicts %v",
						round, q, i, got, scn, ref)
				}
			}
		}
	}
	if e.scenarios != want || len(seen) < 50 {
		t.Fatalf("%d scenarios predicted over %d distinct multi-resident memberships, want Σ distinct residents × P-states = %d",
			e.scenarios, len(seen), want)
	}
}

// TestIdenticalAppsShareOneRowPerState is the sharing the benchmark sees,
// end to end: with 16 copies of one app a membership is its size, every
// resident of it is the same scenario, and each multi-resident size the
// search scores costs len(PStates) rows — not size × len(PStates).
func TestIdenticalAppsShareOneRowPerState(t *testing.T) {
	prob := benchProblem(t, 4)
	for i := range prob.Apps {
		prob.Apps[i] = "cg"
	}
	res, err := Optimize(context.Background(), prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	states := trainedModel(t).PStates()
	sizes := simproc.XeonE5649().Cores - 1 // memberships of 2..6
	if n := res.Stats.Scenarios; n == 0 || n%states != 0 || n/states > sizes {
		t.Fatalf("%d scenarios for 16 identical apps: want one row per P-state (%d) for each of at most %d membership sizes",
			n, states, sizes)
	}
}

// TestOptimizeAllocationBudget keeps the search's allocations where the
// integer-id engine put them: a plan costs its memo entries (one key
// each), the slabs and buffers of one workspace, and the Plan — not
// something per candidate per P-state. The string-keyed engine spent
// 5 981 allocations on a benchmark-shaped problem and 54 864 on the
// 64-machine fleet.
func TestOptimizeAllocationBudget(t *testing.T) {
	if testeq.RaceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	check := func(name string, prob Problem, budget float64) {
		t.Helper()
		if n := testing.AllocsPerRun(5, func() {
			if _, err := Optimize(context.Background(), prob, nil); err != nil {
				t.Error(err)
			}
		}); n > budget {
			t.Errorf("%s: Optimize allocates %.0f times, budget %.0f", name, n, budget)
		}
	}
	for i, prob := range wideProblems(t, 16) {
		check(fmt.Sprintf("wide16x4 problem %d", i), prob, 500)
	}
	check("fleet64", benchProblem(t, 64), 1000)
}
