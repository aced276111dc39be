package simproc

import (
	"math"
	"strings"
	"testing"

	"colocmodel/internal/workload"
)

func proc6(t testing.TB) *Processor {
	t.Helper()
	p, err := New(XeonE5649())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func proc12(t testing.TB) *Processor {
	t.Helper()
	p, err := New(XeonE52697v2())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func app(t testing.TB, name string) workload.App {
	t.Helper()
	a, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSpecsValid(t *testing.T) {
	for _, s := range Machines() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if len(Machines()) != 2 {
		t.Fatal("want the two Table IV machines")
	}
}

func TestSpecValidateCatchesBadSpecs(t *testing.T) {
	mut := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.Cores = 0 },
		func(s *Spec) { s.LLCBytes = 0 },
		func(s *Spec) { s.LLCWays = 0 },
		func(s *Spec) { s.LLCHitLatencyCycles = 0 },
		func(s *Spec) { s.PStates = nil },
		func(s *Spec) { s.Mem.BaseLatencyNs = 0 },
		func(s *Spec) { s.CoreCEffW = -1 },
	}
	for i, m := range mut {
		s := XeonE5649()
		m(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := New(s); err == nil {
			t.Errorf("New accepted mutation %d", i)
		}
	}
}

func TestTableIVSpecs(t *testing.T) {
	s6 := XeonE5649()
	if s6.Cores != 6 || s6.LLCBytes != 12*1024*1024 {
		t.Fatalf("E5649 spec wrong: %+v", s6)
	}
	if math.Abs(s6.PStates.MaxFreq()-2.53) > 1e-9 || math.Abs(s6.PStates.MinFreq()-1.60) > 1e-9 {
		t.Fatal("E5649 frequency range wrong")
	}
	if s6.PStates.Len() != 6 {
		t.Fatal("E5649 must expose six P-states (Table V)")
	}
	s12 := XeonE52697v2()
	if s12.Cores != 12 || s12.LLCBytes != 30*1024*1024 {
		t.Fatalf("E5-2697v2 spec wrong: %+v", s12)
	}
	if math.Abs(s12.PStates.MaxFreq()-2.70) > 1e-9 || math.Abs(s12.PStates.MinFreq()-1.20) > 1e-9 {
		t.Fatal("E5-2697v2 frequency range wrong")
	}
	if s12.PStates.Len() != 6 {
		t.Fatal("E5-2697v2 must expose six P-states (Table V)")
	}
}

func TestBaselineDeterministic(t *testing.T) {
	p := proc6(t)
	a := app(t, "cg")
	r1, err := p.RunBaseline(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.RunBaseline(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TargetSeconds != r2.TargetSeconds {
		t.Fatalf("baseline not deterministic: %v vs %v", r1.TargetSeconds, r2.TargetSeconds)
	}
}

func TestBaselineTimesInPaperRange(t *testing.T) {
	// Section III-E: actual values "range from as little as 150 seconds
	// to over 1000 seconds". Our baselines sit inside a slightly wider
	// guard band.
	for _, mk := range []func(testing.TB) *Processor{proc6, proc12} {
		p := mk(t)
		for _, a := range workload.All() {
			r, err := p.RunBaseline(a, 0)
			if err != nil {
				t.Fatal(err)
			}
			if r.TargetSeconds < 100 || r.TargetSeconds > 1200 {
				t.Errorf("%s on %s: baseline %v s outside [100,1200]", a.Name, p.Spec().Name, r.TargetSeconds)
			}
		}
	}
}

func TestBaselineCountersConsistent(t *testing.T) {
	p := proc6(t)
	a := app(t, "canneal")
	r, err := p.RunBaseline(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Target.Counts
	if c.LLCMisses > c.LLCAccesses {
		t.Fatal("misses exceed accesses")
	}
	if math.Abs(float64(c.Instructions)-a.Instructions)/a.Instructions > 0.01 {
		t.Fatalf("instructions %d, want ~%g", c.Instructions, a.Instructions)
	}
	// Cycles = time × frequency.
	wantCyc := r.TargetSeconds * r.FreqGHz * 1e9
	if math.Abs(float64(c.Cycles)-wantCyc)/wantCyc > 0.01 {
		t.Fatalf("cycles %d, want ~%g", c.Cycles, wantCyc)
	}
	// Access rate ≈ the app's configured rate (phases average out).
	if gotRate := c.CAPerIns(); math.Abs(gotRate-a.LLCAccessRate)/a.LLCAccessRate > 0.1 {
		t.Fatalf("CA/INS %v, want ~%v", gotRate, a.LLCAccessRate)
	}
}

func TestSlowdownMonotoneInCoRunnerCount(t *testing.T) {
	p := proc12(t)
	target := app(t, "canneal")
	cg := app(t, "cg")
	prev := 0.0
	for k := 0; k <= 11; k++ {
		co := make([]workload.App, k)
		for i := range co {
			co[i] = cg
		}
		r, err := p.RunColocation(target, co, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.TargetSeconds <= prev {
			t.Fatalf("k=%d: time %v not greater than k=%d's %v", k, r.TargetSeconds, k-1, prev)
		}
		prev = r.TargetSeconds
	}
}

func TestTableVIShape(t *testing.T) {
	// canneal + 11×cg on the 12-core machine degrades by tens of percent
	// (the paper reports up to 33 %).
	p := proc12(t)
	target := app(t, "canneal")
	cg := app(t, "cg")
	base, err := p.RunBaseline(target, 0)
	if err != nil {
		t.Fatal(err)
	}
	co := make([]workload.App, 11)
	for i := range co {
		co[i] = cg
	}
	r, err := p.RunColocation(target, co, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	norm := r.TargetSeconds / base.TargetSeconds
	if norm < 1.15 || norm > 1.8 {
		t.Fatalf("canneal + 11 cg normalised time %v, want within [1.15, 1.8]", norm)
	}
}

func TestInterferenceOrderedByCoRunnerClass(t *testing.T) {
	// A Class I co-runner must hurt more than Class II, ... than Class IV
	// (the premise of the coAppMem feature).
	p := proc6(t)
	target := app(t, "canneal")
	var times []float64
	for _, co := range workload.TrainingCoApps() { // cg, sp, fluidanimate, ep
		r, err := p.RunColocation(target, []workload.App{co, co, co}, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, r.TargetSeconds)
	}
	for i := 1; i < len(times); i++ {
		if times[i] >= times[i-1] {
			t.Fatalf("co-runner class %d hurt no less than class %d: %v", i+1, i, times)
		}
	}
}

func TestMemoryBoundAppsScaleSublinearlyWithFrequency(t *testing.T) {
	// Lowering frequency stretches a CPU-bound app proportionally but a
	// memory-bound app less (memory latency is wall-clock constant).
	p := proc6(t)
	low := p.Spec().PStates.Len() - 1
	ratio := func(name string) float64 {
		a := app(t, name)
		hi, err := p.RunBaseline(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		lo, err := p.RunBaseline(a, low)
		if err != nil {
			t.Fatal(err)
		}
		return lo.TargetSeconds / hi.TargetSeconds
	}
	fRatio := p.Spec().PStates.MaxFreq() / p.Spec().PStates.MinFreq()
	epR := ratio("ep") // CPU bound: ≈ fRatio
	cgR := ratio("cg") // memory bound: < fRatio
	if math.Abs(epR-fRatio) > 0.05*fRatio {
		t.Fatalf("ep slowdown %v, want ~%v", epR, fRatio)
	}
	if cgR >= epR-0.02 {
		t.Fatalf("cg slowdown %v not sublinear vs ep %v", cgR, epR)
	}
}

func TestExecutionTimeIncreasesAtLowerPStates(t *testing.T) {
	p := proc12(t)
	a := app(t, "ft")
	prev := 0.0
	for ps := 0; ps < p.Spec().PStates.Len(); ps++ {
		r, err := p.RunBaseline(a, ps)
		if err != nil {
			t.Fatal(err)
		}
		if r.TargetSeconds <= prev {
			t.Fatalf("P%d not slower than P%d", ps, ps-1)
		}
		prev = r.TargetSeconds
	}
}

func TestCoRunnersRestart(t *testing.T) {
	// A short co-runner against a long target must complete several times.
	p := proc6(t)
	long := app(t, "ep") // ~380 s
	short := app(t, "ft")
	short.Instructions /= 4
	r, err := p.RunColocation(long, []workload.App{short}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.CoRunners[0].Completions < 2 {
		t.Fatalf("short co-runner completed %d times, want ≥ 2", r.CoRunners[0].Completions)
	}
	if r.Target.Completions != 1 {
		t.Fatalf("target completions = %d", r.Target.Completions)
	}
}

func TestRunErrors(t *testing.T) {
	p := proc6(t)
	a := app(t, "cg")
	// Too many co-runners for the core count.
	co := make([]workload.App, 6)
	for i := range co {
		co[i] = a
	}
	if _, err := p.RunColocation(a, co, 0, Options{}); err == nil {
		t.Fatal("6 co-runners on 6 cores accepted")
	}
	// Bad P-state.
	if _, err := p.RunBaseline(a, 99); err == nil {
		t.Fatal("bad P-state accepted")
	}
	// Invalid target.
	bad := a
	bad.Instructions = 0
	if _, err := p.RunBaseline(bad, 0); err == nil {
		t.Fatal("invalid target accepted")
	}
	// Invalid co-runner.
	if _, err := p.RunColocation(a, []workload.App{bad}, 0, Options{}); err == nil {
		t.Fatal("invalid co-runner accepted")
	}
}

func TestOccupancyConservation(t *testing.T) {
	// Time-averaged target occupancy must be within the LLC, and with no
	// co-runners it must be the whole LLC.
	p := proc6(t)
	a := app(t, "sp")
	r, err := p.RunBaseline(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.TargetAvgOccupancyBytes-p.Spec().LLCBytes) > 0.02*p.Spec().LLCBytes {
		t.Fatalf("solo occupancy %v, want ~%v", r.TargetAvgOccupancyBytes, p.Spec().LLCBytes)
	}
	co := app(t, "cg")
	r2, err := p.RunColocation(a, []workload.App{co, co}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.TargetAvgOccupancyBytes >= r.TargetAvgOccupancyBytes {
		t.Fatal("co-location did not shrink target occupancy")
	}
	if r2.TargetAvgOccupancyBytes <= 0 {
		t.Fatal("target occupancy vanished")
	}
}

func TestDRAMUtilizationGrowsWithCoRunners(t *testing.T) {
	p := proc6(t)
	a := app(t, "cg")
	r1, err := p.RunBaseline(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	co := []workload.App{a, a, a, a, a}
	r2, err := p.RunColocation(a, co, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.AvgDRAMUtilization <= r1.AvgDRAMUtilization {
		t.Fatal("utilization did not grow")
	}
	if r2.AvgMemLatencyNs <= r1.AvgMemLatencyNs {
		t.Fatal("memory latency did not grow")
	}
}

func TestMoreEpochsConverges(t *testing.T) {
	// Increasing epoch resolution must not change results much: the
	// engine is near-stationary for homogeneous co-runners.
	p := proc12(t)
	target := app(t, "canneal")
	cg := app(t, "cg")
	co := []workload.App{cg, cg, cg}
	a, err := p.RunColocation(target, co, 0, Options{Epochs: 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.RunColocation(target, co, 0, Options{Epochs: 256})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.TargetSeconds-b.TargetSeconds)/b.TargetSeconds > 0.02 {
		t.Fatalf("epoch sensitivity: %v vs %v", a.TargetSeconds, b.TargetSeconds)
	}
}

// TestRunColocationAllocs holds a run's allocations to a fixed set per
// run: none may come from an epoch or a fixed-point iteration.
func TestRunColocationAllocs(t *testing.T) {
	p := proc12(t)
	target := app(t, "canneal")
	co := []workload.App{app(t, "cg"), app(t, "cg"), app(t, "ep")}
	allocs := func(epochs int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := p.RunColocation(target, co, 0, Options{Epochs: epochs}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a16, a256 := allocs(16), allocs(256); a16 != a256 {
		t.Fatalf("%v allocations at 16 epochs, %v at 256", a16, a256)
	}
}

func TestTraceOccupancyAgreesWithAnalytical(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven validation is slow")
	}
	// Two contenders with very different access rates: the trace-driven
	// shared cache and the analytical fixed point must agree on who holds
	// more of the LLC.
	p := proc6(t)
	heavy := app(t, "cg")
	light := app(t, "ep")
	tr, err := p.RunTraceDriven(heavy, []workload.App{light}, 0, 500_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	occ := tr.OccupancyFractions
	// Analytical side: run co-location and check the heavy app's average
	// share also dominates.
	r, err := p.RunColocation(heavy, []workload.App{light}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	share := r.TargetAvgOccupancyBytes / p.Spec().LLCBytes
	t.Logf("cg + ep on %s, LLC share cg / ep: traced %.3f / %.3f, analytical %.3f / %.3f",
		p.Spec().Name, occ[0], occ[1], share, 1-share)
	if occ[0] <= occ[1] {
		t.Fatalf("trace occupancy: heavy %v ≤ light %v", occ[0], occ[1])
	}
	if r.TargetAvgOccupancyBytes < p.Spec().LLCBytes/2 {
		t.Fatalf("analytical: heavy app holds %v of %v", r.TargetAvgOccupancyBytes, p.Spec().LLCBytes)
	}
}

func BenchmarkBaselineRun(b *testing.B) {
	p := proc6(b)
	a := app(b, "cg")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunBaseline(a, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColocationRun11(b *testing.B) {
	p := proc12(b)
	target := app(b, "canneal")
	cg := app(b, "cg")
	co := make([]workload.App, 11)
	for i := range co {
		co[i] = cg
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunColocation(target, co, 0, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunTraceDrivenValidatesAnalytical(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven run is slow")
	}
	p := proc6(t)
	target := app(t, "canneal")
	cg := app(t, "cg")

	// Analytical slowdown for canneal + 3 cg.
	base, err := p.RunBaseline(target, 0)
	if err != nil {
		t.Fatal(err)
	}
	an, err := p.RunColocation(target, []workload.App{cg, cg, cg}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	analytical := an.TargetSeconds / base.TargetSeconds

	// Trace-driven estimate of the same scenario vs. its own solo run.
	solo, err := p.RunTraceDriven(target, nil, 0, 1_500_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := p.RunTraceDriven(target, []workload.App{cg, cg, cg}, 0, 1_500_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	traced := shared.TargetSeconds / solo.TargetSeconds
	ratio := (traced - 1) / (analytical - 1)
	t.Logf("canneal + 3 cg on %s: slowdown traced %.3f, analytical %.3f, delta ratio %.2f; canneal's LLC share %.3f solo -> %.3f shared; miss ratios %.3f",
		p.Spec().Name, traced, analytical, ratio, solo.OccupancyFractions[0], shared.OccupancyFractions[0], shared.MissRatios)

	if traced <= 1.0 {
		t.Fatalf("trace-driven slowdown %v shows no interference", traced)
	}
	// The two paths share the timing model but obtain miss ratios very
	// differently (measured LRU contention vs. the MRC/occupancy fixed
	// point), and the synthetic trace generators are calibrated to the
	// application's class rather than its exact MRC. The validation
	// claim is therefore directional and order-of-magnitude: both paths
	// must see interference, within a factor of five on the slowdown
	// delta.
	if ratio < 0.2 || ratio > 5.0 {
		t.Fatalf("trace-driven slowdown %v disagrees with analytical %v (delta ratio %v)",
			traced, analytical, ratio)
	}
	// Target occupancy must shrink under contention.
	if shared.OccupancyFractions[0] >= solo.OccupancyFractions[0] {
		t.Fatalf("occupancy did not shrink: %v -> %v",
			solo.OccupancyFractions[0], shared.OccupancyFractions[0])
	}
	if len(shared.MissRatios) != 4 {
		t.Fatalf("miss ratios = %v", shared.MissRatios)
	}
}

func TestRunTraceDrivenErrors(t *testing.T) {
	p := proc6(t)
	a := app(t, "cg")
	if _, err := p.RunTraceDriven(a, nil, 0, 10, 1); err == nil {
		t.Fatal("tiny ref count accepted")
	}
	if _, err := p.RunTraceDriven(a, nil, 99, 10000, 1); err == nil {
		t.Fatal("bad pstate accepted")
	}
	bad := a
	bad.Instructions = 0
	if _, err := p.RunTraceDriven(bad, nil, 0, 10000, 1); err == nil {
		t.Fatal("invalid target accepted")
	}
	co := make([]workload.App, 6)
	for i := range co {
		co[i] = a
	}
	if _, err := p.RunTraceDriven(a, co, 0, 10000, 1); err == nil {
		t.Fatal("too many co-runners accepted")
	}
	if _, err := p.RunTraceDriven(a, []workload.App{a, bad}, 0, 10000, 1); err == nil || !strings.Contains(err.Error(), "co-app 1") {
		t.Fatalf("invalid co-app: err = %v, want it named", err)
	}
	noClass := a
	noClass.Class = 0
	if _, err := p.RunTraceDriven(noClass, nil, 0, 10000, 1); err == nil {
		t.Fatal("class-0 target accepted")
	}
	negRate := a
	negRate.LLCAccessRate = -1
	if _, err := p.RunTraceDriven(negRate, nil, 0, 10000, 1); err == nil {
		t.Fatal("negative LLC access rate accepted")
	}
}

func TestPackageEnergyAccounting(t *testing.T) {
	p := proc6(t)
	a := app(t, "ft")
	solo, err := p.RunBaseline(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if solo.PackageEnergyJ <= 0 {
		t.Fatal("no package energy")
	}
	// Energy = power × time exactly, with one active core.
	st, _ := p.Spec().PStates.State(0)
	wantPower := p.Spec().UncorePowerW + st.DynamicPowerW(p.Spec().CoreCEffW)
	if math.Abs(solo.PackageEnergyJ-wantPower*solo.TargetSeconds) > 1e-6*solo.PackageEnergyJ {
		t.Fatalf("energy %v, want %v", solo.PackageEnergyJ, wantPower*solo.TargetSeconds)
	}
	// Co-location: more active cores -> more power; longer run -> more
	// energy than solo.
	co := app(t, "cg")
	shared, err := p.RunColocation(a, []workload.App{co, co}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if shared.PackageEnergyJ <= solo.PackageEnergyJ {
		t.Fatal("co-located package energy not larger")
	}
	// Lower P-state: less power, but longer time; energy stays positive
	// and finite.
	low, err := p.RunBaseline(a, p.Spec().PStates.Len()-1)
	if err != nil {
		t.Fatal(err)
	}
	if low.PackageEnergyJ <= 0 {
		t.Fatal("low P-state energy not positive")
	}
}

func TestTimelineRecording(t *testing.T) {
	p := proc6(t)
	target := app(t, "canneal")
	cg := app(t, "cg")
	r, err := p.RunColocation(target, []workload.App{cg, cg}, 0, Options{Epochs: 32, Timeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Timeline) != 32 {
		t.Fatalf("got %d samples, want 32", len(r.Timeline))
	}
	prev := 0.0
	for i, s := range r.Timeline {
		if s.ElapsedSeconds <= prev {
			t.Fatalf("sample %d time not increasing", i)
		}
		prev = s.ElapsedSeconds
		if s.TargetIPS <= 0 || s.TargetMissRatio <= 0 || s.TargetOccupancyBytes <= 0 {
			t.Fatalf("sample %d degenerate: %+v", i, s)
		}
		if s.MemLatencyNs < p.Spec().Mem.BaseLatencyNs {
			t.Fatalf("sample %d latency below base", i)
		}
	}
	// Final sample's elapsed time equals the run's total.
	last := r.Timeline[len(r.Timeline)-1]
	if math.Abs(last.ElapsedSeconds-r.TargetSeconds) > 1e-9*r.TargetSeconds {
		t.Fatalf("timeline end %v != run time %v", last.ElapsedSeconds, r.TargetSeconds)
	}
	// Timeline off by default.
	r2, err := p.RunBaseline(target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Timeline != nil {
		t.Fatal("timeline recorded without being requested")
	}
}
