package sched

import (
	"fmt"
	"math"
	"sort"

	"colocmodel/internal/core"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

// The batch simulator realises the conclusion's vision of
// "interference-aware intelligent scheduling mechanisms": a queue of jobs
// drains onto a fleet of identical machines, and every time membership on
// a machine changes, the co-location fixed point is re-solved so each
// job's progress rate reflects its *current* neighbours. This captures
// what the static Assignment/Measure pair cannot: jobs finishing at
// different times, freed cores being refilled from the queue, and the
// interference landscape shifting continuously.

// BatchPolicy selects the placement rule.
type BatchPolicy int

const (
	// PackFirst fills the first machine with a free core (interference
	// oblivious, maximum consolidation).
	PackFirst BatchPolicy = iota
	// AwareSpread places each job on the machine whose predicted worst
	// slowdown after placement is smallest, deferring placement when no
	// machine satisfies the QoS bound (unless every machine is idle).
	AwareSpread
)

// BatchConfig tunes a batch simulation.
type BatchConfig struct {
	// Machines is the fleet size (identical machines).
	Machines int
	// PState is every machine's operating point.
	PState int
	// Policy selects placement.
	Policy BatchPolicy
	// Model is required for AwareSpread.
	Model *core.Model
	// MaxSlowdown is the QoS bound consulted by AwareSpread (e.g. 1.2).
	MaxSlowdown float64
}

// BatchJobResult reports one job's outcome.
type BatchJobResult struct {
	// Job is the application name.
	Job string
	// Machine is where it ran.
	Machine int
	// StartSeconds and FinishSeconds bound its execution.
	StartSeconds, FinishSeconds float64
	// Slowdown is its realised runtime over the solo baseline.
	Slowdown float64
}

// BatchResult reports a batch simulation.
type BatchResult struct {
	// Jobs holds per-job outcomes in completion order.
	Jobs []BatchJobResult
	// MakespanSeconds is when the last job finished.
	MakespanSeconds float64
	// MeanSlowdown averages realised job slowdowns.
	MeanSlowdown float64
	// WorstSlowdown is the largest realised slowdown.
	WorstSlowdown float64
	// Violations counts jobs whose realised slowdown exceeded the QoS
	// bound (informational for PackFirst).
	Violations int
	// EnergyJ integrates fleet package power over the makespan.
	EnergyJ float64
}

// batchJob is the simulator's mutable per-job state.
type batchJob struct {
	name      string
	app       workload.App
	remaining float64
	start     float64
	machine   int
	baseline  float64
}

// SimulateBatch drains the job queue onto the fleet and returns per-job
// outcomes. Every job is queued at time zero and placed in queue order;
// the simulation advances from one completion to the next.
func SimulateBatch(spec simproc.Spec, jobs []string, cfg BatchConfig) (*BatchResult, error) {
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("sched: batch needs at least one machine")
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("sched: batch needs jobs")
	}
	if cfg.Policy == AwareSpread {
		if cfg.Model == nil {
			return nil, fmt.Errorf("sched: AwareSpread needs a model")
		}
		if !(cfg.MaxSlowdown > 1) { // NaN fails too
			return nil, fmt.Errorf("sched: QoS bound %v must exceed 1", cfg.MaxSlowdown)
		}
	}
	proc, err := simproc.New(spec)
	if err != nil {
		return nil, err
	}
	st, err := spec.PStates.State(cfg.PState)
	if err != nil {
		return nil, err
	}

	// Queue with resolved apps and baselines, FIFO.
	queue := make([]*batchJob, 0, len(jobs))
	baselineCache := map[string]float64{}
	for _, name := range jobs {
		app, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		base, ok := baselineCache[name]
		if !ok {
			r, err := proc.RunBaseline(app, cfg.PState)
			if err != nil {
				return nil, err
			}
			base = r.TargetSeconds
			baselineCache[name] = base
		}
		queue = append(queue, &batchJob{
			name: name, app: app,
			remaining: app.Instructions,
			baseline:  base,
		})
	}

	machines := make([][]*batchJob, cfg.Machines)
	res := &BatchResult{}
	now := 0.0
	corePower := st.DynamicPowerW(spec.CoreCEffW)

	admit := func() error {
		for len(queue) > 0 {
			job := queue[0]
			mi, err := placeBatch(cfg, spec, machines, job.name)
			if err != nil {
				return err
			}
			if mi < 0 {
				return nil // defer until something completes
			}
			job.start = now
			job.machine = mi
			machines[mi] = append(machines[mi], job)
			queue = queue[1:]
		}
		return nil
	}
	if err := admit(); err != nil {
		return nil, err
	}

	const maxSteps = 1 << 20 // safety valve; real batches need far fewer
	for step := 0; step < maxSteps; step++ {
		running := 0
		for _, m := range machines {
			running += len(m)
		}
		if running == 0 {
			if len(queue) == 0 {
				break
			}
			return nil, fmt.Errorf("sched: %d jobs stuck in queue with idle fleet", len(queue))
		}
		// Rates per machine at current membership.
		rates := make([][]float64, cfg.Machines)
		dt := math.Inf(1)
		for mi, m := range machines {
			if len(m) == 0 {
				continue
			}
			apps := make([]workload.App, len(m))
			for j, job := range m {
				apps[j] = job.app
			}
			r, err := proc.SteadyRates(apps, cfg.PState)
			if err != nil {
				return nil, err
			}
			rates[mi] = r
			for j, job := range m {
				if r[j] <= 0 {
					return nil, fmt.Errorf("sched: job %s stalled", job.name)
				}
				if t := job.remaining / r[j]; t < dt {
					dt = t
				}
			}
		}
		// Advance to the next completion.
		for mi, m := range machines {
			for j := range m {
				m[j].remaining -= rates[mi][j] * dt
			}
		}
		// Fleet energy: uncore per machine with any activity + dynamic
		// per active core.
		for _, m := range machines {
			if len(m) > 0 {
				res.EnergyJ += (spec.UncorePowerW + float64(len(m))*corePower) * dt
			}
		}
		now += dt
		// Collect completions.
		for mi, m := range machines {
			keep := m[:0]
			for _, job := range m {
				if job.remaining <= 1 { // within one instruction of done
					runtime := now - job.start
					sd := runtime / job.baseline
					res.Jobs = append(res.Jobs, BatchJobResult{
						Job: job.name, Machine: mi,
						StartSeconds: job.start, FinishSeconds: now,
						Slowdown: sd,
					})
				} else {
					keep = append(keep, job)
				}
			}
			machines[mi] = keep
		}
		if err := admit(); err != nil {
			return nil, err
		}
	}

	if len(res.Jobs) != len(jobs) {
		return nil, fmt.Errorf("sched: %d of %d jobs completed", len(res.Jobs), len(jobs))
	}
	res.MakespanSeconds = now
	sum := 0.0
	for _, j := range res.Jobs {
		sum += j.Slowdown
		if j.Slowdown > res.WorstSlowdown {
			res.WorstSlowdown = j.Slowdown
		}
		if cfg.MaxSlowdown > 1 && j.Slowdown > cfg.MaxSlowdown {
			res.Violations++
		}
	}
	res.MeanSlowdown = sum / float64(len(res.Jobs))
	sort.Slice(res.Jobs, func(a, b int) bool { return res.Jobs[a].FinishSeconds < res.Jobs[b].FinishSeconds })
	return res, nil
}

// placeBatch picks a machine index for the job, or -1 to defer.
func placeBatch(cfg BatchConfig, spec simproc.Spec, machines [][]*batchJob, job string) (int, error) {
	switch cfg.Policy {
	case PackFirst:
		for mi, m := range machines {
			if len(m) < spec.Cores {
				return mi, nil
			}
		}
		return -1, nil
	case AwareSpread:
		best, bestWorst := -1, 0.0
		idle := -1
		for mi, m := range machines {
			if len(m) >= spec.Cores {
				continue
			}
			if len(m) == 0 && idle < 0 {
				idle = mi
			}
			residents := make([]string, 0, len(m)+1)
			for _, r := range m {
				residents = append(residents, r.name)
			}
			residents = append(residents, job)
			worst, err := worstPredictedSlowdown(cfg.Model, residents, cfg.PState)
			if err != nil {
				return 0, err
			}
			if worst <= cfg.MaxSlowdown && (best < 0 || worst < bestWorst) {
				best, bestWorst = mi, worst
			}
		}
		if best >= 0 {
			return best, nil
		}
		// No machine satisfies the bound: run alone on an idle machine if
		// one exists (slowdown 1), otherwise defer.
		return idle, nil
	default:
		return 0, fmt.Errorf("sched: unknown policy %d", int(cfg.Policy))
	}
}
