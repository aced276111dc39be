// Package placement is the what-if placement optimizer the paper's
// introduction motivates: given a fleet of multicore machines and a
// multiset of pending applications, it searches for the assignment (and
// per-machine P-state) that minimises the total predicted degradation —
// or, with the energy objective, the total predicted energy — using a
// trained co-location model as its only oracle.
//
// The optimizer is deliberately built as a heavy consumer of the batch
// inference tier: every candidate it considers is scored by funneling
// the implied co-location scenarios through one batched
// core.PredictScenariosInto call per decision round, so a single
// placement request fans out to thousands of predictions. The search
// itself is kept out of the way of that work: apps are small integer
// ids, every distinct (machine class, membership) is predicted once, and
// a candidate is assembled, keyed and scored in buffers one Optimize call
// owns, so what a candidate costs is the model's rows and nothing else. Search is greedy
// construction followed by seeded local search (move/swap neighbourhoods
// sampled at a configurable beam width), and everything stochastic draws
// from one explicit seed so the same problem always yields the same plan
// byte for byte.
//
// P-states are co-optimised per machine: a machine's score is the best
// (fewest QoS violations, then lowest objective) over its allowed
// P-states, realising the paper's conclusion that operating points shift
// under power and temperature pressure and a scheduler should plan with
// that freedom rather than around it.
package placement

import (
	"errors"
	"fmt"
	"sort"

	"colocmodel/internal/core"
	"colocmodel/internal/simproc"
)

// ErrInvalid marks a malformed problem: every validation failure wraps
// it, so the serve tier can map client mistakes to typed 400s while
// genuine faults stay 500s.
var ErrInvalid = errors.New("invalid placement problem")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("placement: %s: %w", fmt.Sprintf(format, args...), ErrInvalid)
}

// IsInvalid reports whether err stems from a malformed problem (as
// opposed to a model or context fault).
func IsInvalid(err error) bool {
	return errors.Is(err, ErrInvalid)
}

// Objective selects what the optimizer minimises.
type Objective int

const (
	// MinDegradation minimises the sum over apps of predicted execution
	// time divided by the app's best-case (P0, solo) baseline — total
	// completion-time stretch from both interference and DVFS throttling.
	MinDegradation Objective = iota
	// MinEnergy minimises the fleet's total predicted energy: each
	// machine's uncore plus per-core dynamic power over each resident's
	// predicted execution time, with the P-state chosen per machine.
	MinEnergy
)

// String names the objective (also its wire form).
func (o Objective) String() string {
	switch o {
	case MinDegradation:
		return "slowdown"
	case MinEnergy:
		return "energy"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ObjectiveByName parses the wire form ("slowdown" or "energy"; empty
// selects MinDegradation).
func ObjectiveByName(name string) (Objective, error) {
	switch name {
	case "", "slowdown", "degradation":
		return MinDegradation, nil
	case "energy":
		return MinEnergy, nil
	}
	return 0, invalidf("unknown objective %q (want slowdown or energy)", name)
}

// Machine describes one fleet machine: its processor model, how many
// cores the optimizer may use, and which P-states it may choose.
type Machine struct {
	// Name identifies the machine in plans ("m3" when empty).
	Name string
	// Spec is the processor model (power parameters, P-state table).
	Spec simproc.Spec
	// Cores is the number of usable cores, 1..Spec.Cores. 0 selects
	// Spec.Cores.
	Cores int
	// PStates are the allowed P-state indices. Empty allows every
	// P-state known to both the machine and the model.
	PStates []int
}

// Problem is one placement instance.
type Problem struct {
	// Model scores every candidate (required).
	Model *core.Model
	// Machines is the fleet (at least one machine).
	Machines []Machine
	// Apps are the pending applications, one entry per copy.
	Apps []string
	// Objective selects what to minimise.
	Objective Objective
	// QoSBound caps each app's predicted interference slowdown
	// (predicted over baseline at the chosen P-state); 0 disables the
	// bound, otherwise it must exceed 1. Candidates violating the bound
	// are only chosen when no feasible candidate exists; violations are
	// reported on the plan.
	QoSBound float64
	// Seed drives local-search neighbourhood sampling.
	Seed uint64
	// Beam is the number of candidate moves sampled per local-search
	// round; 0 disables local search (greedy construction only).
	Beam int
	// MaxRounds caps local-search rounds. 0 selects the default (64).
	MaxRounds int
}

// normalize fills defaults and validates; it returns a deep copy so the
// search never mutates caller state.
func (p Problem) normalize() (Problem, error) {
	if p.Model == nil {
		return p, invalidf("nil model")
	}
	if len(p.Machines) == 0 {
		return p, invalidf("fleet must have at least one machine")
	}
	if len(p.Apps) == 0 {
		return p, invalidf("apps must not be empty")
	}
	if p.Objective != MinDegradation && p.Objective != MinEnergy {
		return p, invalidf("unknown objective %d", int(p.Objective))
	}
	if p.QoSBound != 0 && p.QoSBound <= 1 {
		return p, invalidf("QoS bound %v must exceed 1 (or 0 to disable)", p.QoSBound)
	}
	if p.Beam < 0 {
		return p, invalidf("negative beam %d", p.Beam)
	}
	if p.MaxRounds < 0 {
		return p, invalidf("negative round cap %d", p.MaxRounds)
	}
	if p.MaxRounds == 0 {
		p.MaxRounds = 64
	}
	apps := make([]string, len(p.Apps))
	for i, a := range p.Apps {
		if !p.Model.HasApp(a) {
			return p, invalidf("unknown app %q", a)
		}
		apps[i] = a
	}
	p.Apps = apps
	machines := make([]Machine, len(p.Machines))
	totalCores := 0
	for i, m := range p.Machines {
		if err := m.Spec.Validate(); err != nil {
			return p, invalidf("machine %d: %v", i, err)
		}
		if m.Cores == 0 {
			m.Cores = m.Spec.Cores
		}
		if m.Cores < 1 || m.Cores > m.Spec.Cores {
			return p, invalidf("machine %d: %d cores out of [1,%d]", i, m.Cores, m.Spec.Cores)
		}
		if m.Name == "" {
			m.Name = fmt.Sprintf("m%d", i)
		}
		maxPS := p.Model.PStates()
		if n := m.Spec.PStates.Len(); n < maxPS {
			maxPS = n
		}
		if len(m.PStates) == 0 {
			m.PStates = make([]int, maxPS)
			for ps := range m.PStates {
				m.PStates[ps] = ps
			}
		} else {
			ps := append([]int(nil), m.PStates...)
			sort.Ints(ps)
			for j, v := range ps {
				if v < 0 || v >= maxPS {
					return p, invalidf("machine %d: P-state %d out of range [0,%d) (conflicts with the model or machine P-state table)", i, v, maxPS)
				}
				if j > 0 && ps[j-1] == v {
					return p, invalidf("machine %d: duplicate P-state %d", i, v)
				}
			}
			m.PStates = ps
		}
		totalCores += m.Cores
		machines[i] = m
	}
	if totalCores < len(p.Apps) {
		return p, invalidf("%d apps exceed the fleet's %d cores", len(p.Apps), totalCores)
	}
	p.Machines = machines
	return p, nil
}

// AppPlacement is one app's predicted outcome under a plan.
type AppPlacement struct {
	// App is the application name; Machine is the fleet index it was
	// placed on; PState is that machine's chosen operating point.
	App     string `json:"app"`
	Machine int    `json:"machine"`
	PState  int    `json:"pstate"`
	// PredictedSeconds is the model's co-located execution-time
	// prediction at the machine's P-state; BaselineSeconds is the solo
	// baseline at the same P-state.
	PredictedSeconds float64 `json:"predicted_seconds"`
	BaselineSeconds  float64 `json:"baseline_seconds"`
	// Slowdown is the interference slowdown (predicted over baseline at
	// the same P-state); Degradation additionally charges DVFS
	// throttling (predicted over the P0 baseline).
	Slowdown    float64 `json:"slowdown"`
	Degradation float64 `json:"degradation"`
}

// Plan is one complete placement with its predicted account.
type Plan struct {
	// Assignments maps machine index to the app names placed there (in
	// input order); PStates is each machine's chosen operating point
	// (the machine's lowest-index allowed P-state when it is empty).
	Assignments [][]string `json:"assignments"`
	PStates     []int      `json:"pstates"`
	// Apps reports every app's predicted outcome, in input order.
	Apps []AppPlacement `json:"apps"`
	// TotalDegradation sums per-app degradation; TotalSlowdown sums
	// interference slowdowns; TotalEnergyJ sums predicted machine
	// energies.
	TotalDegradation float64 `json:"total_degradation"`
	TotalSlowdown    float64 `json:"total_slowdown"`
	TotalEnergyJ     float64 `json:"total_energy_j"`
	// Objective is the minimised value (TotalDegradation or
	// TotalEnergyJ, per the problem's objective).
	Objective float64 `json:"objective"`
	// QoSViolations counts apps whose interference slowdown exceeds the
	// bound (0 when no bound is set).
	QoSViolations int `json:"qos_violations"`
	// MachinesUsed counts non-empty machines.
	MachinesUsed int `json:"machines_used"`
}

// Better orders plans lexicographically: fewer QoS violations first,
// then lower objective. Strict — equal plans are not better, so local
// search terminates; it is also how the streaming endpoint's incremental
// plans are ordered.
func (pl *Plan) Better(than *Plan) bool {
	if pl.QoSViolations != than.QoSViolations {
		return pl.QoSViolations < than.QoSViolations
	}
	return pl.Objective < than.Objective
}

// SearchStats reports how the search went.
type SearchStats struct {
	// Rounds is the number of local-search rounds run; Improvements
	// counts accepted improving moves (the greedy construction is not
	// counted).
	Rounds       int `json:"rounds"`
	Improvements int `json:"improvements"`
	// Scenarios counts the co-location scenarios sent through the model:
	// for each distinct machine membership the search scored, one row per
	// distinct resident per candidate P-state. A membership seen again is
	// not re-predicted, identical residents of a membership share one row
	// (same target, same co-runners, same prediction), and a lone
	// resident needs none.
	Scenarios int `json:"scenarios_predicted"`
	// Converged reports that local search ran dry (two consecutive
	// rounds without an improving move) before hitting the round cap.
	Converged bool `json:"converged"`
	// TimedOut reports that the context expired mid-search; the plan is
	// the best found so far.
	TimedOut bool `json:"timed_out,omitempty"`
}

// Result is a completed optimisation.
type Result struct {
	Plan  *Plan       `json:"plan"`
	Stats SearchStats `json:"search"`
}
