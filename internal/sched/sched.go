// Package sched builds the application the paper motivates in Sections I
// and VI: an interference-aware consolidation scheduler. Accurate
// co-location slowdown predictions let a resource manager pack
// applications onto fewer multicore processors (saving power) while
// honouring a quality-of-service bound on each application's slowdown.
//
// Two policies are provided: an interference-oblivious packer that fills
// machines by core count alone, and a greedy interference-aware packer
// that consults a trained core.Model before each placement. The package
// can then measure the *actual* slowdowns of an assignment on the
// simulator, which is how the examples and benchmarks quantify the value
// of prediction accuracy.
package sched

import (
	"fmt"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

// Assignment maps machine index → the application names placed there.
type Assignment [][]string

// MachinesUsed returns the number of non-empty machines.
func (a Assignment) MachinesUsed() int {
	n := 0
	for _, m := range a {
		if len(m) > 0 {
			n++
		}
	}
	return n
}

// Oblivious packs jobs onto machines in order, interference-blind, using
// every core of a machine before opening the next. This is the server-
// consolidation default the paper's introduction describes.
func Oblivious(spec simproc.Spec, jobs []string) Assignment {
	var out Assignment
	var cur []string
	for _, j := range jobs {
		cur = append(cur, j)
		if len(cur) == spec.Cores {
			out = append(out, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// AwareConfig tunes the interference-aware packer.
type AwareConfig struct {
	// MaxSlowdown is the QoS bound: no application's predicted slowdown
	// may exceed it (e.g. 1.20 for a 20 % budget).
	MaxSlowdown float64
	// PState is the operating point of every machine.
	PState int
	// MaxMachines optionally caps the fleet; 0 = unlimited. When the cap
	// binds, jobs are placed on the machine with the smallest predicted
	// worst-case slowdown even if that violates the QoS bound.
	MaxMachines int
}

// GreedyAware packs jobs using model predictions: each job goes to the
// machine where adding it keeps every resident's predicted slowdown
// (including its own) within the QoS bound, choosing the feasible machine
// whose predicted worst slowdown after placement is smallest; if no
// machine is feasible a new one is opened.
func GreedyAware(model *core.Model, spec simproc.Spec, jobs []string, cfg AwareConfig) (Assignment, error) {
	if model == nil {
		return nil, fmt.Errorf("sched: nil model")
	}
	if !(cfg.MaxSlowdown > 1) { // NaN fails too
		return nil, fmt.Errorf("sched: QoS bound %v must exceed 1", cfg.MaxSlowdown)
	}
	// Checked up front: a job placed alone is never predicted, so a bad
	// P-state or app would otherwise surface only when one is co-located.
	if cfg.PState < 0 || cfg.PState >= model.PStates() {
		return nil, fmt.Errorf("sched: P-state %d out of range [0,%d)", cfg.PState, model.PStates())
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	for _, job := range jobs {
		if !model.HasApp(job) {
			return nil, fmt.Errorf("sched: model has no baseline for job %q", job)
		}
	}
	var out Assignment
	for _, job := range jobs {
		bestIdx := -1
		bestWorst := 0.0
		for mi, resident := range out {
			if len(resident) >= spec.Cores {
				continue
			}
			worst, err := worstPredictedSlowdown(model, append(append([]string{}, resident...), job), cfg.PState)
			if err != nil {
				return nil, err
			}
			if worst <= cfg.MaxSlowdown && (bestIdx == -1 || worst < bestWorst) {
				bestIdx, bestWorst = mi, worst
			}
		}
		if bestIdx >= 0 {
			out[bestIdx] = append(out[bestIdx], job)
			continue
		}
		if cfg.MaxMachines > 0 && len(out) >= cfg.MaxMachines {
			// Fleet is capped: fall back to the least-bad machine.
			bestIdx, bestWorst = -1, 0
			for mi, resident := range out {
				if len(resident) >= spec.Cores {
					continue
				}
				worst, err := worstPredictedSlowdown(model, append(append([]string{}, resident...), job), cfg.PState)
				if err != nil {
					return nil, err
				}
				if bestIdx == -1 || worst < bestWorst {
					bestIdx, bestWorst = mi, worst
				}
			}
			if bestIdx == -1 {
				return nil, fmt.Errorf("sched: fleet capped at %d machines and all cores busy", cfg.MaxMachines)
			}
			out[bestIdx] = append(out[bestIdx], job)
			continue
		}
		out = append(out, []string{job})
	}
	return out, nil
}

// worstPredictedSlowdown predicts each resident's slowdown with the others
// as co-runners and returns the worst.
func worstPredictedSlowdown(model *core.Model, residents []string, pstate int) (float64, error) {
	worst := 0.0
	for i, target := range residents {
		co := make([]string, 0, len(residents)-1)
		co = append(co, residents[:i]...)
		co = append(co, residents[i+1:]...)
		if len(co) == 0 {
			worst = maxf(worst, 1)
			continue
		}
		sd, err := model.PredictedSlowdown(features.Scenario{Target: target, CoApps: co, PState: pstate})
		if err != nil {
			return 0, err
		}
		worst = maxf(worst, sd)
	}
	return worst, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// JobOutcome reports one job's measured behaviour under an assignment.
type JobOutcome struct {
	// Job is the application name.
	Job string
	// Machine is the machine index it ran on.
	Machine int
	// Slowdown is the measured execution time over the solo baseline.
	Slowdown float64
}

// Evaluation reports the measured quality of an assignment.
type Evaluation struct {
	// Outcomes lists every job's measured slowdown.
	Outcomes []JobOutcome
	// MachinesUsed is the number of occupied machines.
	MachinesUsed int
	// WorstSlowdown is the largest measured slowdown.
	WorstSlowdown float64
	// MeanSlowdown averages measured slowdowns.
	MeanSlowdown float64
	// Violations counts jobs whose measured slowdown exceeds the bound.
	Violations int
}

// Measure runs each machine's co-location on the simulator and returns
// the jobs' actual (simulated) slowdowns, judged against the QoS bound.
func Measure(spec simproc.Spec, asg Assignment, pstate int, qosBound float64) (*Evaluation, error) {
	proc, err := simproc.New(spec)
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{MachinesUsed: asg.MachinesUsed()}
	sum := 0.0
	for mi, residents := range asg {
		if len(residents) > spec.Cores {
			return nil, fmt.Errorf("sched: machine %d has %d jobs for %d cores", mi, len(residents), spec.Cores)
		}
		for i, name := range residents {
			target, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			var co []workload.App
			for j, other := range residents {
				if j == i {
					continue
				}
				app, err := workload.ByName(other)
				if err != nil {
					return nil, err
				}
				co = append(co, app)
			}
			base, err := proc.RunBaseline(target, pstate)
			if err != nil {
				return nil, err
			}
			run, err := proc.RunColocation(target, co, pstate, simproc.Options{})
			if err != nil {
				return nil, err
			}
			sd := run.TargetSeconds / base.TargetSeconds
			ev.Outcomes = append(ev.Outcomes, JobOutcome{Job: name, Machine: mi, Slowdown: sd})
			sum += sd
			if sd > ev.WorstSlowdown {
				ev.WorstSlowdown = sd
			}
			if sd > qosBound {
				ev.Violations++
			}
		}
	}
	if len(ev.Outcomes) > 0 {
		ev.MeanSlowdown = sum / float64(len(ev.Outcomes))
	}
	return ev, nil
}
