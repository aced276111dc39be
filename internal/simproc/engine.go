package simproc

import (
	"fmt"
	"math"

	"colocmodel/internal/dram"
	"colocmodel/internal/perfctr"
	"colocmodel/internal/workload"
)

// Processor simulates one multicore machine.
type Processor struct {
	spec Spec
	mem  *dram.Controller
}

// New constructs a Processor from a validated Spec.
func New(spec Spec) (*Processor, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	mem, err := dram.New(spec.Mem)
	if err != nil {
		return nil, err
	}
	return &Processor{spec: spec, mem: mem}, nil
}

// Spec returns the processor specification.
func (p *Processor) Spec() Spec { return p.spec }

// appCtx is the per-core execution context of one running application.
type appCtx struct {
	app      workload.App
	restart  bool // co-runners restart on completion until the target ends
	executed float64
	finished bool // only meaningful for the non-restarting target
	// twin marks a co-runner whose app equals the previous co-runner's:
	// the two start alike and stay alike, so the fixed point copies a
	// twin's state from its predecessor instead of recomputing it.
	twin bool

	// Accumulated hardware counters.
	instructions float64
	cycles       float64
	llcAccesses  float64
	llcMisses    float64

	// Fixed-point state for the current epoch.
	occupancy  float64 // LLC bytes
	missRatio  float64
	accessRate float64 // effective LLC accesses/instruction this epoch
	cpi        float64
	ips        float64
	weight     float64 // LLC insertion weight of the current iteration
}

// newContexts builds the target's context followed by one restarting
// context per co-runner, marking each co-runner that repeats the one
// before it a twin. The target is never a twin.
func newContexts(target workload.App, coApps []workload.App) []*appCtx {
	backing := make([]appCtx, len(coApps)+1)
	ctxs := make([]*appCtx, len(backing))
	backing[0].app = target
	ctxs[0] = &backing[0]
	for i, a := range coApps {
		c := &backing[i+1]
		c.app, c.restart, c.twin = a, true, i > 0 && a == coApps[i-1]
		ctxs[i+1] = c
	}
	return ctxs
}

// CounterValue implements perfctr.Backend over the context's accumulated
// totals.
func (c *appCtx) CounterValue(ev perfctr.Event) (uint64, error) {
	switch ev {
	case perfctr.TotIns:
		return uint64(c.instructions), nil
	case perfctr.TotCyc:
		return uint64(c.cycles), nil
	case perfctr.L3TCM:
		return uint64(c.llcMisses), nil
	case perfctr.L3TCA:
		return uint64(c.llcAccesses), nil
	default:
		return 0, fmt.Errorf("simproc: unsupported event %s", ev)
	}
}

// AppResult reports one application context's activity during a run.
type AppResult struct {
	// App is the application that ran in this context.
	App workload.App
	// Counts are the hardware counters accumulated over the run.
	Counts perfctr.Counts
	// Completions is how many full executions finished (restarting
	// co-runners may complete several; the target completes exactly one).
	Completions int
}

// Result reports a co-location run.
type Result struct {
	// Machine is the processor name.
	Machine string
	// PStateIndex and FreqGHz identify the operating point of the run.
	PStateIndex int
	FreqGHz     float64
	// TargetSeconds is the target application's execution time.
	TargetSeconds float64
	// Target is the measured target context.
	Target AppResult
	// CoRunners are the co-located contexts, in core order.
	CoRunners []AppResult
	// AvgMemLatencyNs is the time-averaged loaded memory latency.
	AvgMemLatencyNs float64
	// AvgDRAMUtilization is the time-averaged offered DRAM load.
	AvgDRAMUtilization float64
	// TargetAvgOccupancyBytes is the target's time-averaged LLC share.
	TargetAvgOccupancyBytes float64
	// PackageEnergyJ is the simulated package energy over the run
	// (uncore power plus per-active-core dynamic power, integrated over
	// the target's execution) — the simulator's RAPL-counter analogue.
	PackageEnergyJ float64
	// Timeline holds per-epoch samples when Options.Timeline was set.
	Timeline []TimelineSample
}

// Options tunes a run.
type Options struct {
	// Epochs is the number of target-progress epochs (default 64). More
	// epochs resolve phase behaviour more finely at linear cost.
	Epochs int
	// Timeline, when true, records a per-epoch sample of the run's
	// internal state in Result.Timeline for diagnostics.
	Timeline bool
}

// TimelineSample is one epoch's snapshot of the co-location state.
type TimelineSample struct {
	// ElapsedSeconds is the wall-clock time at the end of the epoch.
	ElapsedSeconds float64
	// TargetIPS is the target's instructions per second.
	TargetIPS float64
	// TargetMissRatio is the target's LLC miss ratio.
	TargetMissRatio float64
	// TargetOccupancyBytes is the target's LLC share.
	TargetOccupancyBytes float64
	// MemLatencyNs is the loaded memory latency.
	MemLatencyNs float64
	// DRAMUtilization is the offered DRAM load fraction.
	DRAMUtilization float64
}

// defaultEpochs balances phase resolution against cost.
const defaultEpochs = 64

// RunBaseline executes app alone on the processor at the given P-state.
func (p *Processor) RunBaseline(app workload.App, pstate int) (Result, error) {
	return p.RunColocation(app, nil, pstate, Options{})
}

// RunColocation executes target on one core and coApps on additional
// cores, at P-state index pstate, until the target completes. Co-runners
// restart when they finish, keeping interference pressure constant — the
// protocol of Section IV-B3. It returns the target's execution time and
// the hardware counters of every context.
func (p *Processor) RunColocation(target workload.App, coApps []workload.App, pstate int, opts Options) (Result, error) {
	if err := target.Validate(); err != nil {
		return Result{}, err
	}
	if len(coApps) > p.spec.Cores-1 {
		return Result{}, fmt.Errorf("simproc: %d co-located apps exceed %d available cores",
			len(coApps), p.spec.Cores-1)
	}
	for i, a := range coApps {
		if err := a.Validate(); err != nil {
			return Result{}, fmt.Errorf("simproc: co-app %d: %w", i, err)
		}
	}
	st, err := p.spec.PStates.State(pstate)
	if err != nil {
		return Result{}, err
	}
	epochs := opts.Epochs
	if epochs <= 0 {
		epochs = defaultEpochs
	}

	ctxs := newContexts(target, coApps)
	tgt := ctxs[0]

	var (
		elapsed      float64
		latIntegral  float64
		utilIntegral float64
		occIntegral  float64
		timeline     []TimelineSample
	)
	packagePowerW := p.spec.UncorePowerW +
		float64(len(ctxs))*st.DynamicPowerW(p.spec.CoreCEffW)
	completions := make([]int, len(ctxs))

	counts, err := perfctr.Collect(tgt, func() error {
		instrPerEpoch := target.Instructions / float64(epochs)
		for e := 0; e < epochs; e++ {
			p.solveFixedPoint(ctxs, st.FreqGHz)
			if tgt.ips <= 0 {
				return fmt.Errorf("simproc: target instruction rate collapsed to zero")
			}
			dt := instrPerEpoch / tgt.ips
			totalMissRate := 0.0
			for i, c := range ctxs {
				instr := c.ips * dt
				c.executed += instr
				c.instructions += instr
				c.cycles += st.FreqGHz * 1e9 * dt
				acc := instr * c.accessRate
				c.llcAccesses += acc
				c.llcMisses += acc * c.missRatio
				totalMissRate += c.ips * c.accessRate * c.missRatio
				if c.restart {
					for c.executed >= c.app.Instructions {
						c.executed -= c.app.Instructions
						completions[i]++
					}
				}
			}
			completions[0] = 0 // the target completes exactly once, below
			elapsed += dt
			latIntegral += p.mem.Latency(totalMissRate) * dt
			utilIntegral += p.mem.Utilization(totalMissRate) * dt
			occIntegral += tgt.occupancy * dt
			if opts.Timeline {
				timeline = append(timeline, TimelineSample{
					ElapsedSeconds:       elapsed,
					TargetIPS:            tgt.ips,
					TargetMissRatio:      tgt.missRatio,
					TargetOccupancyBytes: tgt.occupancy,
					MemLatencyNs:         p.mem.Latency(totalMissRate),
					DRAMUtilization:      p.mem.Utilization(totalMissRate),
				})
			}
		}
		tgt.finished = true
		completions[0] = 1
		return nil
	})
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Machine:                 p.spec.Name,
		PStateIndex:             pstate,
		FreqGHz:                 st.FreqGHz,
		TargetSeconds:           elapsed,
		Target:                  AppResult{App: target, Counts: counts, Completions: 1},
		AvgMemLatencyNs:         latIntegral / elapsed,
		AvgDRAMUtilization:      utilIntegral / elapsed,
		TargetAvgOccupancyBytes: occIntegral / elapsed,
		PackageEnergyJ:          packagePowerW * elapsed,
		Timeline:                timeline,
	}
	for i, c := range ctxs[1:] {
		res.CoRunners = append(res.CoRunners, AppResult{
			App: c.app,
			Counts: perfctr.Counts{
				Instructions: uint64(c.instructions),
				Cycles:       uint64(c.cycles),
				LLCMisses:    uint64(c.llcMisses),
				LLCAccesses:  uint64(c.llcAccesses),
			},
			Completions: completions[i+1],
		})
	}
	return res, nil
}

// SteadyRates solves the co-location fixed point once for the given set
// of applications running together at a P-state and returns each
// application's steady-state instruction rate (instructions per second).
// Phase modulation is evaluated at the start of execution; the paper's
// applications have small amplitudes, so this is also the run average to
// within a few percent. The discrete-event batch scheduler uses this to
// advance arbitrary, churning co-location states without running each
// membership epoch through the full engine.
func (p *Processor) SteadyRates(apps []workload.App, pstate int) ([]float64, error) {
	if len(apps) == 0 {
		return nil, fmt.Errorf("simproc: SteadyRates needs at least one app")
	}
	if len(apps) > p.spec.Cores {
		return nil, fmt.Errorf("simproc: %d apps exceed %d cores", len(apps), p.spec.Cores)
	}
	st, err := p.spec.PStates.State(pstate)
	if err != nil {
		return nil, err
	}
	for i, a := range apps {
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("simproc: app %d: %w", i, err)
		}
	}
	ctxs := newContexts(apps[0], apps[1:])
	p.solveFixedPoint(ctxs, st.FreqGHz)
	out := make([]float64, len(ctxs))
	for i, c := range ctxs {
		out[i] = c.ips
	}
	return out, nil
}

// fixed-point iteration controls.
const (
	fpIterations = 80
	fpDamping    = 0.5
	fpTolerance  = 1e-9
)

// solveFixedPoint computes the epoch's steady state: per-context LLC
// occupancy, miss ratio, CPI and instruction rate, and the shared memory
// latency, mutually consistent at frequency freqGHz. A twin takes each
// per-context value from its predecessor, whose inputs are the same, and
// every sum still adds one term per context in context order, so the
// result is bit-identical to solving every context separately.
func (p *Processor) solveFixedPoint(ctxs []*appCtx, freqGHz float64) {
	n := len(ctxs)
	llc := p.spec.LLCBytes

	// Effective access rate this epoch: the application's base rate
	// modulated by its phase position (three full phase cycles per run).
	for i, c := range ctxs {
		if c.twin {
			c.accessRate, c.occupancy = ctxs[i-1].accessRate, ctxs[i-1].occupancy
			continue
		}
		progress := 0.0
		if c.app.Instructions > 0 {
			progress = math.Mod(c.executed/c.app.Instructions, 1)
		}
		mod := 1 + c.app.PhaseAmplitude*math.Sin(2*math.Pi*3*progress)
		c.accessRate = c.app.LLCAccessRate * mod
		// Initial guesses.
		if c.occupancy == 0 {
			c.occupancy = llc / float64(n)
		}
	}

	memLat := p.spec.Mem.BaseLatencyNs
	for iter := 0; iter < fpIterations; iter++ {
		p.rates(ctxs, memLat*freqGHz, freqGHz)
		// Aggregate miss bandwidth → new memory latency (damped).
		total := 0.0
		for _, c := range ctxs {
			total += c.ips * c.accessRate * c.missRatio
		}
		newLat := p.mem.Latency(total)
		// Occupancy proportional to LLC access rate: in a shared LRU
		// cache both insertions and hits refresh recency, so an
		// application's steady-state share tracks the rate at which it
		// touches the cache, not just the rate at which it misses. A
		// small floor keeps nearly-idle applications from vanishing.
		weightSum := 0.0
		for _, c := range ctxs {
			c.weight = c.ips*c.accessRate + 1e3
			weightSum += c.weight
		}
		maxDelta := math.Abs(newLat-memLat) / p.spec.Mem.BaseLatencyNs
		for i, c := range ctxs {
			if c.twin {
				// Its delta is its predecessor's, already in maxDelta.
				c.occupancy = ctxs[i-1].occupancy
				continue
			}
			targetOcc := llc * c.weight / weightSum
			delta := fpDamping * (targetOcc - c.occupancy)
			c.occupancy += delta
			maxDelta = math.Max(maxDelta, math.Abs(delta)/llc)
		}
		memLat += fpDamping * (newLat - memLat)
		if maxDelta < fpTolerance {
			break
		}
	}
	// Final consistency pass with converged occupancies and latency.
	p.rates(ctxs, memLat*freqGHz, freqGHz)
}

// rates sets each context's miss ratio at its occupancy, and its CPI and
// instruction rate at a memory latency of memLatCycles; a twin copies its
// predecessor's.
func (p *Processor) rates(ctxs []*appCtx, memLatCycles, freqGHz float64) {
	for i, c := range ctxs {
		if c.twin {
			prev := ctxs[i-1]
			c.missRatio, c.cpi, c.ips = prev.missRatio, prev.cpi, prev.ips
			continue
		}
		c.missRatio = c.app.MRC.Ratio(c.occupancy)
		hit := (1 - c.missRatio) * p.spec.LLCHitLatencyCycles * c.app.HitExposeFrac
		miss := c.missRatio * memLatCycles * c.app.MissExposeFrac
		c.cpi = c.app.BaseCPI + c.accessRate*(hit+miss)
		c.ips = freqGHz * 1e9 / c.cpi
	}
}
