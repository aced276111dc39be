package harness

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
	"colocmodel/internal/xrand"
)

// The reference implementations below are the harness's sweeps as plain
// nested loops, one run after another, drawing noise as each run ends.
// The tests hold the concurrent runner to them bit for bit.

func sequentialCollect(p Plan) (*Dataset, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	proc, err := simproc.New(p.Spec)
	if err != nil {
		return nil, err
	}
	noise := xrand.New(p.Seed)
	ds := &Dataset{Machine: p.Spec.Name, LLCBytes: p.Spec.LLCBytes}
	for _, st := range p.Spec.PStates.States() {
		ds.PStateFreqs = append(ds.PStateFreqs, st.FreqGHz)
	}
	if ds.Baselines, err = sequentialBaselines(proc, append(append([]workload.App(nil), p.Targets...), p.CoApps...), p.NoiseSigma, noise); err != nil {
		return nil, err
	}
	for _, ps := range p.PStates {
		st, err := p.Spec.PStates.State(ps)
		if err != nil {
			return nil, err
		}
		for _, target := range p.Targets {
			for _, coApp := range p.CoApps {
				for _, k := range p.CoCounts {
					co := make([]workload.App, k)
					for i := range co {
						co[i] = coApp
					}
					r, err := proc.RunColocation(target, co, ps, simproc.Options{})
					if err != nil {
						return nil, fmt.Errorf("harness: %s + %d×%s P%d: %w",
							target.Name, k, coApp.Name, ps, err)
					}
					ds.Records = append(ds.Records, Record{
						Machine:     p.Spec.Name,
						PState:      ps,
						FreqGHz:     st.FreqGHz,
						Target:      target.Name,
						CoApp:       coApp.Name,
						NumCoLoc:    k,
						Seconds:     applyNoise(r.TargetSeconds, p.NoiseSigma, noise),
						TrueSeconds: r.TargetSeconds,
						Counts:      r.Target.Counts,
					})
				}
			}
		}
	}
	return ds, nil
}

func sequentialBaselines(proc *simproc.Processor, apps []workload.App, sigma float64, noise *xrand.Source) (map[string]Baseline, error) {
	byName := map[string]workload.App{}
	for _, a := range apps {
		byName[a.Name] = a
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	spec := proc.Spec()
	out := make(map[string]Baseline, len(names))
	for _, name := range names {
		b := Baseline{App: name, SecondsByPState: make([]float64, spec.PStates.Len())}
		for ps := 0; ps < spec.PStates.Len(); ps++ {
			r, err := proc.RunBaseline(byName[name], ps)
			if err != nil {
				return nil, fmt.Errorf("harness: baseline %s P%d: %w", name, ps, err)
			}
			b.SecondsByPState[ps] = applyNoise(r.TargetSeconds, sigma, noise)
			if ps == 0 {
				b.MemIntensity = r.Target.Counts.MemoryIntensity()
				b.CMPerCA = r.Target.Counts.CMPerCA()
				b.CAPerIns = r.Target.Counts.CAPerIns()
			}
		}
		out[name] = b
	}
	return out, nil
}

func sequentialScenarios(proc *simproc.Processor, scenarios []Scenario, sigma float64, noise *xrand.Source) ([]MixedRecord, error) {
	var out []MixedRecord
	for i, sc := range scenarios {
		st, err := proc.Spec().PStates.State(sc.PState)
		if err != nil {
			return nil, fmt.Errorf("harness: scenario %d: %w", i, err)
		}
		run, err := proc.RunColocation(sc.Target, sc.CoApps, sc.PState, simproc.Options{})
		if err != nil {
			return nil, fmt.Errorf("harness: scenario %d: %w", i, err)
		}
		names := make([]string, len(sc.CoApps))
		for j, a := range sc.CoApps {
			names[j] = a.Name
		}
		out = append(out, MixedRecord{
			Machine:     proc.Spec().Name,
			PState:      sc.PState,
			FreqGHz:     st.FreqGHz,
			Target:      sc.Target.Name,
			CoApps:      names,
			Seconds:     applyNoise(run.TargetSeconds, sigma, noise),
			TrueSeconds: run.TargetSeconds,
		})
	}
	return out, nil
}

// withProcs runs fn with GOMAXPROCS set to n.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// sameFloat reports whether a and b are the same float64, bit for bit.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

func checkBaselines(t *testing.T, got, want map[string]Baseline) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d baselines, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok || g.App != w.App || !sameFloats(g.SecondsByPState, w.SecondsByPState) ||
			!sameFloat(g.MemIntensity, w.MemIntensity) || !sameFloat(g.CMPerCA, w.CMPerCA) || !sameFloat(g.CAPerIns, w.CAPerIns) {
			t.Fatalf("baseline %s = %+v, want %+v", name, g, w)
		}
	}
}

func checkDataset(t *testing.T, got, want *Dataset) {
	t.Helper()
	if got.Machine != want.Machine || !sameFloat(got.LLCBytes, want.LLCBytes) || !sameFloats(got.PStateFreqs, want.PStateFreqs) {
		t.Fatalf("dataset header %q %v %v, want %q %v %v",
			got.Machine, got.LLCBytes, got.PStateFreqs, want.Machine, want.LLCBytes, want.PStateFreqs)
	}
	checkBaselines(t, got.Baselines, want.Baselines)
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%d records, want %d", len(got.Records), len(want.Records))
	}
	for i, w := range want.Records {
		g := got.Records[i]
		if g.Machine != w.Machine || g.PState != w.PState || !sameFloat(g.FreqGHz, w.FreqGHz) ||
			g.Target != w.Target || g.CoApp != w.CoApp || g.NumCoLoc != w.NumCoLoc ||
			!sameFloat(g.Seconds, w.Seconds) || !sameFloat(g.TrueSeconds, w.TrueSeconds) ||
			g.Counts.Instructions != w.Counts.Instructions || g.Counts.Cycles != w.Counts.Cycles ||
			g.Counts.LLCMisses != w.Counts.LLCMisses || g.Counts.LLCAccesses != w.Counts.LLCAccesses {
			t.Fatalf("record %d = %+v, want %+v", i, g, w)
		}
	}
}

func checkMixed(t *testing.T, got, want []MixedRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		same := g.Machine == w.Machine && g.PState == w.PState && sameFloat(g.FreqGHz, w.FreqGHz) &&
			g.Target == w.Target && len(g.CoApps) == len(w.CoApps) &&
			sameFloat(g.Seconds, w.Seconds) && sameFloat(g.TrueSeconds, w.TrueSeconds)
		for j := 0; same && j < len(w.CoApps); j++ {
			same = g.CoApps[j] == w.CoApps[j]
		}
		if !same {
			t.Fatalf("scenario %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestConcurrentCollectMatchesSequential: the three sweeps give the
// reference loops' results bit for bit, noise included, whether their
// runs go one at a time or four at once.
func TestConcurrentCollectMatchesSequential(t *testing.T) {
	p := smallPlan(t, 0.01)
	wantDS, err := sequentialCollect(p)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := simproc.New(p.Spec)
	if err != nil {
		t.Fatal(err)
	}
	apps := append(workload.All(), workload.Microbenchmarks()...)
	wantBase, err := sequentialBaselines(proc, apps, 0.01, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	scs, err := RandomMixedScenarios(workload.All(), workload.All(), p.Spec.Cores-1, 24, []int{0, 2, 5}, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	wantMixed, err := sequentialScenarios(proc, scs, 0.01, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			ds, err := Collect(p)
			if err != nil {
				t.Fatal(err)
			}
			checkDataset(t, ds, wantDS)
			base, err := CollectBaselines(proc, apps, 0.01, xrand.New(5))
			if err != nil {
				t.Fatal(err)
			}
			checkBaselines(t, base, wantBase)
			mixed, err := CollectScenarios(proc, scs, 0.01, xrand.New(7))
			if err != nil {
				t.Fatal(err)
			}
			checkMixed(t, mixed, wantMixed)
		})
	}
}

// TestCollectReportsFirstFailure: with two failing runs in a sweep, the
// error names the lower-indexed one, in the reference loop's words,
// however many runs go at once.
func TestCollectReportsFirstFailure(t *testing.T) {
	broken := func(name string) workload.App {
		a, err := workload.ByName("cg")
		if err != nil {
			t.Fatal(err)
		}
		a.Name, a.Instructions = name, 0
		return a
	}
	p := smallPlan(t, 0.01)
	// Baselines run in name order: broken-a is the lower-indexed run.
	p.Targets = append(p.Targets, broken("broken-b"), broken("broken-a"))
	_, wantCollect := sequentialCollect(p)

	proc, err := simproc.New(p.Spec)
	if err != nil {
		t.Fatal(err)
	}
	cg, ep := p.CoApps[0], p.CoApps[1]
	scs := make([]Scenario, 16)
	for i := range scs {
		scs[i] = Scenario{Target: ep, CoApps: []workload.App{cg, cg}, PState: i % 6}
	}
	scs[5].CoApps = []workload.App{cg, broken("broken-co")}
	scs[9] = Scenario{Target: broken("broken-target")}
	_, wantScenarios := sequentialScenarios(proc, scs, 0.01, xrand.New(1))
	if wantCollect == nil || wantScenarios == nil {
		t.Fatal("the reference loops accepted a broken app")
	}
	for _, procs := range []int{1, 2, 4, 32} {
		withProcs(procs, func() {
			if _, err := Collect(p); err == nil || err.Error() != wantCollect.Error() {
				t.Fatalf("GOMAXPROCS %d: Collect error %v, want %v", procs, err, wantCollect)
			}
			if _, err := CollectScenarios(proc, scs, 0.01, xrand.New(1)); err == nil || err.Error() != wantScenarios.Error() {
				t.Fatalf("GOMAXPROCS %d: CollectScenarios error %v, want %v", procs, err, wantScenarios)
			}
		})
	}
	t.Logf("Collect: %v; CollectScenarios: %v", wantCollect, wantScenarios)
}
