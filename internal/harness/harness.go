// Package harness implements the testing environment and data-collection
// protocol of Section IV of the paper: baseline sweeps of every
// application across the six selected P-states, and the nested-loop
// collection of co-location training data (Table V) in which each of the
// eleven target applications runs against multiple homogeneous copies of
// each of the four representative co-location applications.
//
// The harness mirrors the paper's pseudocode:
//
//	for each multicore processor:
//	    for each frequency:
//	        for each target application:
//	            for each co-located application:
//	                for each number of co-locations:
//	                    get_exec_time_of_target()
//
// Measurement noise: the paper's lightweight-OS environment minimises but
// cannot eliminate run-to-run variability, so the harness injects small
// multiplicative log-normal noise into measured execution times. With
// NoiseSigma = 0 the harness is fully deterministic.
package harness

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"colocmodel/internal/perfctr"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
	"colocmodel/internal/xrand"
)

// Baseline is the per-application serial measurement the methodology
// requires exactly once per machine (Section I: "only a single serial
// baseline measurement of parameters for each application").
type Baseline struct {
	// App is the application name.
	App string
	// SecondsByPState is the baseline execution time at each P-state
	// index (P0 first).
	SecondsByPState []float64
	// MemIntensity is LLC misses per instruction measured at P0.
	MemIntensity float64
	// CMPerCA is LLC misses per LLC access at P0.
	CMPerCA float64
	// CAPerIns is LLC accesses per instruction at P0.
	CAPerIns float64
}

// Record is one co-location measurement: the target's observed execution
// time in one scenario. CoApp is empty for baseline (solo) records.
type Record struct {
	// Machine is the processor name.
	Machine string
	// PState is the P-state index of the run.
	PState int
	// FreqGHz is the frequency of that P-state.
	FreqGHz float64
	// Target is the measured application's name.
	Target string
	// CoApp is the co-located application's name ("" if none).
	CoApp string
	// NumCoLoc is the number of co-located copies (0 for baseline).
	NumCoLoc int
	// Seconds is the measured (noisy) target execution time.
	Seconds float64
	// TrueSeconds is the noise-free simulated execution time, kept for
	// harness-level diagnostics; models never see it.
	TrueSeconds float64
	// Counts are the target's hardware counters for the run.
	Counts perfctr.Counts
}

// Dataset is everything collected from one machine: baselines plus
// co-location records.
type Dataset struct {
	// Machine is the processor name.
	Machine string
	// PStateFreqs lists the frequency of each P-state index.
	PStateFreqs []float64
	// LLCBytes is the machine's LLC capacity (kept for reporting).
	LLCBytes float64
	// Baselines maps application name to its baseline measurement.
	Baselines map[string]Baseline
	// Records are the co-location measurements.
	Records []Record
}

// Plan describes a data-collection campaign on one machine (one row of
// Table V).
type Plan struct {
	// Spec is the processor to collect on.
	Spec simproc.Spec
	// Targets are the applications measured as targets.
	Targets []workload.App
	// CoApps are the applications used as homogeneous co-runners.
	CoApps []workload.App
	// CoCounts are the numbers of co-located copies to sweep
	// ("num. of co-locations" in Table V).
	CoCounts []int
	// PStates are the P-state indices to sweep (six per machine).
	PStates []int
	// NoiseSigma is the log-normal sigma of measurement noise (0.01 ≈
	// 1 % run-to-run variation). Zero disables noise.
	NoiseSigma float64
	// Seed drives the noise stream.
	Seed uint64
}

// DefaultCoCounts returns the Table V co-location counts for a machine
// with the given core count: every count up to cores−1 when that is small
// (the 6-core machine uses 1–5), and a sparse, evenly spread subset up to
// cores−1 for larger machines (the 12-core machine uses 1,2,3,5,7,9,11).
func DefaultCoCounts(cores int) []int {
	max := cores - 1
	if max <= 0 {
		return nil
	}
	if max <= 5 {
		out := make([]int, max)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	out := []int{1, 2, 3}
	for k := 5; k <= max; k += 2 {
		out = append(out, k)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// DefaultPlan returns the paper's Table V campaign for a machine: all
// eleven applications as targets, the four representative co-apps, the
// default co-location counts, all six P-states, and 1 % measurement noise.
func DefaultPlan(spec simproc.Spec, seed uint64) Plan {
	ps := make([]int, spec.PStates.Len())
	for i := range ps {
		ps[i] = i
	}
	return Plan{
		Spec:       spec,
		Targets:    workload.All(),
		CoApps:     workload.TrainingCoApps(),
		CoCounts:   DefaultCoCounts(spec.Cores),
		PStates:    ps,
		NoiseSigma: 0.01,
		Seed:       seed,
	}
}

// Validate checks the plan.
func (p Plan) Validate() error {
	if err := p.Spec.Validate(); err != nil {
		return err
	}
	if len(p.Targets) == 0 {
		return fmt.Errorf("harness: plan has no targets")
	}
	if len(p.CoApps) == 0 {
		return fmt.Errorf("harness: plan has no co-apps")
	}
	if len(p.CoCounts) == 0 {
		return fmt.Errorf("harness: plan has no co-location counts")
	}
	for _, k := range p.CoCounts {
		if k < 1 || k > p.Spec.Cores-1 {
			return fmt.Errorf("harness: co-location count %d out of [1,%d]", k, p.Spec.Cores-1)
		}
	}
	if len(p.PStates) == 0 {
		return fmt.Errorf("harness: plan has no P-states")
	}
	for _, ps := range p.PStates {
		if _, err := p.Spec.PStates.State(ps); err != nil {
			return err
		}
	}
	if !(p.NoiseSigma >= 0 && p.NoiseSigma <= 0.2) { // NaN fails too
		return fmt.Errorf("harness: noise sigma %v out of [0,0.2]", p.NoiseSigma)
	}
	return nil
}

// RunCount returns the number of co-location measurements the plan will
// take (excluding baselines).
func (p Plan) RunCount() int {
	return len(p.Targets) * len(p.CoApps) * len(p.CoCounts) * len(p.PStates)
}

// Collect executes the plan: baseline sweeps first, then the full nested
// co-location loop.
func Collect(p Plan) (*Dataset, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	proc, err := simproc.New(p.Spec)
	if err != nil {
		return nil, err
	}
	noise := xrand.New(p.Seed)
	ds := &Dataset{
		Machine:   p.Spec.Name,
		LLCBytes:  p.Spec.LLCBytes,
		Baselines: make(map[string]Baseline),
	}
	for _, st := range p.Spec.PStates.States() {
		ds.PStateFreqs = append(ds.PStateFreqs, st.FreqGHz)
	}

	// Baselines: union of targets and co-apps, every P-state.
	baseApps := map[string]workload.App{}
	for _, a := range p.Targets {
		baseApps[a.Name] = a
	}
	for _, a := range p.CoApps {
		baseApps[a.Name] = a
	}
	apps := make([]workload.App, 0, len(baseApps))
	for _, a := range baseApps {
		apps = append(apps, a)
	}
	baselines, err := CollectBaselines(proc, apps, p.NoiseSigma, noise)
	if err != nil {
		return nil, err
	}
	ds.Baselines = baselines

	// Co-location sweep, in the paper's loop order.
	scs := make([]Scenario, 0, p.RunCount())
	for _, ps := range p.PStates {
		for _, target := range p.Targets {
			for _, coApp := range p.CoApps {
				for _, k := range p.CoCounts {
					scs = append(scs, Scenario{Target: target, CoApps: Homogeneous(coApp, k), PState: ps})
				}
			}
		}
	}
	runs, failed, err := sweep(proc, scs)
	if err != nil {
		sc := scs[failed]
		return nil, fmt.Errorf("harness: %s + %d×%s P%d: %w",
			sc.Target.Name, len(sc.CoApps), sc.CoApps[0].Name, sc.PState, err)
	}
	ds.Records = make([]Record, len(scs))
	for i, sc := range scs {
		r := runs[i]
		ds.Records[i] = Record{
			Machine:     p.Spec.Name,
			PState:      sc.PState,
			FreqGHz:     r.freqGHz,
			Target:      sc.Target.Name,
			CoApp:       sc.CoApps[0].Name,
			NumCoLoc:    len(sc.CoApps),
			Seconds:     applyNoise(r.seconds, p.NoiseSigma, noise),
			TrueSeconds: r.seconds,
			Counts:      r.counts,
		}
	}
	return ds, nil
}

// CollectBaselines measures the serial baseline of each application on
// the processor: execution time at every P-state plus the P0 counter
// ratios. Applications are processed in name order so the noise stream
// assignment is deterministic. This is also the entry point for adding
// baselines of *new* applications (e.g. microbenchmarks) to an existing
// dataset, since prediction requires nothing else.
func CollectBaselines(proc *simproc.Processor, apps []workload.App, sigma float64, noise *xrand.Source) (map[string]Baseline, error) {
	byName := map[string]workload.App{}
	for _, a := range apps {
		byName[a.Name] = a
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	n := proc.Spec().PStates.Len()
	scs := make([]Scenario, 0, len(names)*n)
	for _, name := range names {
		for ps := 0; ps < n; ps++ {
			scs = append(scs, Scenario{Target: byName[name], PState: ps})
		}
	}
	runs, failed, err := sweep(proc, scs)
	if err != nil {
		return nil, fmt.Errorf("harness: baseline %s P%d: %w", scs[failed].Target.Name, scs[failed].PState, err)
	}
	out := make(map[string]Baseline, len(names))
	for i, name := range names {
		b := Baseline{App: name, SecondsByPState: make([]float64, n)}
		for ps, r := range runs[i*n : (i+1)*n] {
			b.SecondsByPState[ps] = applyNoise(r.seconds, sigma, noise)
		}
		p0 := runs[i*n].counts
		b.MemIntensity, b.CMPerCA, b.CAPerIns = p0.MemoryIntensity(), p0.CMPerCA(), p0.CAPerIns()
		out[name] = b
	}
	return out, nil
}

// run is what a sweep keeps of one simulation: the fields of its
// simproc.Result that the datasets record.
type run struct {
	seconds float64        // the target's TargetSeconds
	freqGHz float64        // the P-state's frequency
	counts  perfctr.Counts // the target's counters
}

// sweep runs every scenario on proc over runtime.GOMAXPROCS(0)
// goroutines and returns the results in scenario order. A run depends on
// its scenario alone (Processor is safe for concurrent use), so the
// results do not depend on how many run at once; callers draw noise
// afterwards, in scenario order. If runs fail, failed is the lowest
// failing index and err its error; otherwise failed is -1.
func sweep(proc *simproc.Processor, scs []Scenario) (runs []run, failed int, err error) {
	runs = make([]run, len(scs))
	errs := make([]error, len(scs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(scs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(scs); i = int(next.Add(1) - 1) {
				sc := scs[i]
				r, err := proc.RunColocation(sc.Target, sc.CoApps, sc.PState, simproc.Options{})
				runs[i], errs[i] = run{r.TargetSeconds, r.FreqGHz, r.Target.Counts}, err
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return runs, i, err
		}
	}
	return runs, -1, nil
}

// applyNoise multiplies v by a log-normal factor with the given sigma.
func applyNoise(v, sigma float64, src *xrand.Source) float64 {
	if sigma == 0 {
		return v
	}
	return v * src.LogNormal(0, sigma)
}

// Baseline returns the baseline for app, or an error if it was never
// measured.
func (d *Dataset) Baseline(app string) (Baseline, error) {
	b, ok := d.Baselines[app]
	if !ok {
		return Baseline{}, fmt.Errorf("harness: no baseline for %q on %s", app, d.Machine)
	}
	return b, nil
}
