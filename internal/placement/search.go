package placement

import (
	"context"
	"fmt"
	"sort"

	"colocmodel/internal/core"
	"colocmodel/internal/simproc"
	"colocmodel/internal/xrand"
)

// state is the search's mutable placement: app → machine plus each
// machine's membership (app indices in placement order) and its current
// score, and the buffers a round of search reuses.
type state struct {
	prob    *Problem
	eng     *engine
	assign  []int   // app index → machine
	members [][]int // machine → app indices, placement order
	scores  []*machineScore

	cands   []int // construct: the machines a round asked about
	moves   []move
	touched [][2]int // the two machines each of moves changes
	seen    map[move]struct{}
}

func newState(prob *Problem, eng *engine) *state {
	st := &state{
		prob:    prob,
		eng:     eng,
		assign:  make([]int, len(prob.Apps)),
		members: make([][]int, len(prob.Machines)),
		scores:  make([]*machineScore, len(prob.Machines)),
		seen:    make(map[move]struct{}, prob.Beam),
	}
	for i := range st.assign {
		st.assign[i] = -1
	}
	for m := range st.scores {
		st.scores[m] = emptyScore
	}
	return st
}

// ask requests the score of machine m's membership with the app at index
// except removed and the app at index extra added (< 0 removes, adds,
// nobody).
func (st *state) ask(m, except, extra int) {
	st.eng.ask(st.eng.classOf[m], false, st.members[m], except, extra)
}

func (st *state) free(m int) bool {
	return len(st.members[m]) < st.prob.Machines[m].Cores
}

// place commits app ai to machine m with its freshly scored membership.
func (st *state) place(ai, m int, sc *machineScore) {
	st.assign[ai] = m
	st.members[m] = append(st.members[m], ai)
	st.scores[m] = sc
}

// plan snapshots the state into a reportable Plan.
func (st *state) plan() *Plan {
	p := &Plan{
		Assignments: make([][]string, len(st.members)),
		PStates:     make([]int, len(st.members)),
		Apps:        make([]AppPlacement, len(st.prob.Apps)),
	}
	ids := st.eng.appID
	for m, mem := range st.members {
		names := make([]string, len(mem))
		p.Assignments[m] = names
		if len(mem) == 0 {
			p.PStates[m] = st.prob.Machines[m].PStates[0]
			continue
		}
		sc := st.scores[m]
		p.PStates[m] = sc.pstate
		p.MachinesUsed++
		for _, ai := range mem {
			// Assignments list a machine's apps in input order, and the
			// score's accounts follow the sorted ids: an app's rank is the
			// residents before it in either order. Identical apps share
			// identical scenarios, so the first occurrence's account is
			// exact for all of them.
			at, first := 0, 0
			for _, other := range mem {
				if other < ai {
					at++
				}
				if ids[other] < ids[ai] {
					first++
				}
			}
			name := st.prob.Apps[ai]
			names[at] = name
			a := sc.perApp[first]
			p.Apps[ai] = AppPlacement{
				App: name, Machine: m, PState: sc.pstate,
				PredictedSeconds: a.predictedSeconds,
				BaselineSeconds:  a.baselineSeconds,
				Slowdown:         a.slowdown,
				Degradation:      a.degradation,
			}
		}
		p.TotalDegradation += sc.degradation
		p.TotalSlowdown += sc.slowSum
		p.TotalEnergyJ += sc.energyJ
		p.QoSViolations += sc.violations
		p.Objective += sc.objective
	}
	return p
}

// appOrder returns app indices in construction order: longest-running
// first (descending P0 baseline — the heavy jobs spread across machines
// before the fleet fills), ties by name then index for determinism.
func appOrder(st *state) []int {
	e := st.eng
	order := make([]int, len(st.prob.Apps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		i, j := e.appID[order[x]], e.appID[order[y]]
		if bi, bj := e.base[int(i)*e.pstates], e.base[int(j)*e.pstates]; bi != bj {
			return bi > bj
		}
		if i != j {
			return i < j // ids are ordered like names
		}
		return order[x] < order[y]
	})
	return order
}

// construct greedily places every app: each app goes to the machine
// (with a free core) where the fleet's (violations, objective) grows
// least, all candidate machines scored in one batched model call. A
// machine of the same class and membership as an earlier candidate is
// not asked about: it would score the same, and ties go to the lower
// machine index. Every score is a memo entry, so two machines of one
// class have equal memberships exactly when they share a score.
func construct(ctx context.Context, st *state) error {
	e := st.eng
	for _, ai := range appOrder(st) {
		e.begin()
		st.cands = st.cands[:0]
	machines:
		for m := range st.prob.Machines {
			if !st.free(m) {
				continue
			}
			for _, c := range st.cands {
				if e.classOf[c] == e.classOf[m] && st.scores[c] == st.scores[m] {
					continue machines
				}
			}
			st.ask(m, -1, ai)
			st.cands = append(st.cands, m)
		}
		if len(st.cands) == 0 {
			return fmt.Errorf("placement: no free core for app %d (%s)", ai, st.prob.Apps[ai])
		}
		scores, err := e.scoreAll(ctx)
		if err != nil {
			return err
		}
		best := -1
		var bestDV int
		var bestDO float64
		for c, sc := range scores {
			m := st.cands[c]
			dv := sc.violations - st.scores[m].violations
			do := sc.objective - st.scores[m].objective
			if best == -1 || dv < bestDV || (dv == bestDV && do < bestDO) {
				best, bestDV, bestDO = c, dv, do
			}
		}
		st.place(ai, st.cands[best], scores[best])
	}
	return nil
}

// move is one local-search neighbour: relocate app a to machine to, or
// exchange apps a and b across machines.
type move struct {
	swap bool
	a, b int
	to   int
}

// sampleMoves draws up to beam distinct candidate moves from the seeded
// source. Swaps between equal app names are no-ops and skipped.
func sampleMoves(st *state, rng *xrand.Source, beam int) []move {
	nApps, nMach := len(st.prob.Apps), len(st.prob.Machines)
	clear(st.seen)
	st.moves = st.moves[:0]
	for tries := 0; tries < beam*6 && len(st.moves) < beam; tries++ {
		var mv move
		if nMach > 1 && rng.Bool(0.5) {
			mv = move{a: rng.Intn(nApps), to: rng.Intn(nMach)}
			if mv.to == st.assign[mv.a] || !st.free(mv.to) {
				continue
			}
		} else {
			mv = move{swap: true, a: rng.Intn(nApps), b: rng.Intn(nApps)}
			if mv.a > mv.b {
				mv.a, mv.b = mv.b, mv.a
			}
			if st.assign[mv.a] == st.assign[mv.b] ||
				st.eng.appID[mv.a] == st.eng.appID[mv.b] {
				continue
			}
		}
		if _, dup := st.seen[mv]; dup {
			continue
		}
		st.seen[mv] = struct{}{}
		st.moves = append(st.moves, mv)
	}
	return st.moves
}

// affected asks for the scores of the two memberships a move creates and
// returns the machines it touches.
func (st *state) affected(mv move) [2]int {
	if mv.swap {
		ma, mb := st.assign[mv.a], st.assign[mv.b]
		st.ask(ma, mv.a, mv.b)
		st.ask(mb, mv.b, mv.a)
		return [2]int{ma, mb}
	}
	from := st.assign[mv.a]
	st.ask(from, mv.a, -1)
	st.ask(mv.to, -1, mv.a)
	return [2]int{from, mv.to}
}

// apply commits a move with its two freshly scored memberships.
func (st *state) apply(mv move, ms [2]int, na, nb *machineScore) {
	remove := func(m, ai int) {
		mem := st.members[m]
		for i, v := range mem {
			if v == ai {
				st.members[m] = append(mem[:i], mem[i+1:]...)
				return
			}
		}
	}
	if mv.swap {
		remove(ms[0], mv.a)
		remove(ms[1], mv.b)
		st.members[ms[0]] = append(st.members[ms[0]], mv.b)
		st.members[ms[1]] = append(st.members[ms[1]], mv.a)
		st.assign[mv.a], st.assign[mv.b] = ms[1], ms[0]
	} else {
		remove(ms[0], mv.a)
		st.members[ms[1]] = append(st.members[ms[1]], mv.a)
		st.assign[mv.a] = ms[1]
	}
	st.scores[ms[0]], st.scores[ms[1]] = na, nb
}

// Optimize searches for the best placement: greedy construction, then
// seeded local search over sampled move/swap neighbourhoods, every
// candidate scored through batched model predictions. onImprove (may be
// nil) receives the constructed plan and then every strictly improving
// plan, in order — the streaming endpoint's incremental results. A
// context expiring mid-search returns the best plan found so far with
// Stats.TimedOut set; only cancellation before any plan exists is an
// error.
func Optimize(ctx context.Context, prob Problem, onImprove func(*Plan)) (*Result, error) {
	np, err := prob.normalize()
	if err != nil {
		return nil, err
	}
	eng, err := newEngine(np.Model, np.Machines, np.Apps, np.Objective, np.QoSBound)
	if err != nil {
		return nil, err
	}
	st := newState(&np, eng)
	if err := construct(ctx, st); err != nil {
		return nil, err
	}
	// A Plan is built only for a consumer: per improvement when someone
	// listens, otherwise once, at return.
	res := &Result{}
	report := func() {
		if onImprove != nil {
			res.Plan = st.plan()
			onImprove(res.Plan)
		}
	}
	report()

	rng := xrand.New(np.Seed)
	dry := 0
	for np.Beam > 0 && res.Stats.Rounds < np.MaxRounds && dry < 2 {
		if ctx.Err() != nil {
			res.Stats.TimedOut = true
			break
		}
		res.Stats.Rounds++
		moves := sampleMoves(st, rng, np.Beam)
		if len(moves) == 0 {
			dry++
			continue
		}
		eng.begin()
		st.touched = st.touched[:0]
		for _, mv := range moves {
			st.touched = append(st.touched, st.affected(mv))
		}
		scores, err := eng.scoreAll(ctx)
		if err != nil {
			if ctx.Err() != nil {
				res.Stats.TimedOut = true
				break
			}
			return nil, err
		}
		best := -1
		var bestDV int
		var bestDO float64
		for c, ms := range st.touched {
			na, nb := scores[2*c], scores[2*c+1]
			dv := na.violations + nb.violations - st.scores[ms[0]].violations - st.scores[ms[1]].violations
			do := na.objective + nb.objective - st.scores[ms[0]].objective - st.scores[ms[1]].objective
			if dv > 0 || (dv == 0 && do >= 0) {
				continue // not strictly improving
			}
			if best == -1 || dv < bestDV || (dv == bestDV && do < bestDO) {
				best, bestDV, bestDO = c, dv, do
			}
		}
		if best == -1 {
			dry++
			continue
		}
		dry = 0
		st.apply(moves[best], st.touched[best], scores[2*best], scores[2*best+1])
		res.Stats.Improvements++
		report()
	}
	if res.Plan == nil {
		res.Plan = st.plan()
	}
	res.Stats.Converged = np.Beam == 0 || dry >= 2
	res.Stats.Scenarios = eng.scenarios
	return res, nil
}

// PackFirst is the interference-oblivious baseline: apps fill the fleet
// in input order, each machine to capacity at its first allowed
// P-state. It is the consolidation default the paper's introduction
// describes, and the yardstick the optimizer must beat.
func PackFirst(ctx context.Context, prob Problem) (*Plan, error) {
	np, err := prob.normalize()
	if err != nil {
		return nil, err
	}
	eng, err := newEngine(np.Model, np.Machines, np.Apps, np.Objective, np.QoSBound)
	if err != nil {
		return nil, err
	}
	st := newState(&np, eng)
	m := 0
	for ai := range np.Apps {
		for !st.free(m) {
			m++
		}
		st.assign[ai] = m
		st.members[m] = append(st.members[m], ai)
	}
	// Every machine is asked about, pinned; an empty one answers
	// emptyScore.
	eng.begin()
	for mi, mem := range st.members {
		eng.ask(eng.classOf[mi], true, mem, -1, -1)
	}
	scores, err := eng.scoreAll(ctx)
	if err != nil {
		return nil, err
	}
	copy(st.scores, scores)
	return st.plan(), nil
}

// PackConfig tunes GreedyPack, mirroring sched.AwareConfig.
type PackConfig struct {
	// MaxSlowdown is the QoS bound on predicted interference slowdown
	// (must exceed 1).
	MaxSlowdown float64
	// PState is every machine's fixed operating point.
	PState int
	// MaxMachines optionally caps the fleet; 0 = unlimited. When the
	// cap binds, jobs go to the least-bad machine even over the bound.
	MaxMachines int
}

// GreedyPack is the open-fleet greedy packer behind POST /v1/schedule:
// semantically identical to sched.GreedyAware (each job goes to the
// feasible machine with the smallest predicted worst slowdown after
// placement, opening a new machine when none is feasible), but every
// decision's candidate machines are scored in one batched model call
// through the placement engine — one scoring path for the whole
// scheduling surface. Predictions are bit-identical to the per-scenario
// path, so assignments match sched.GreedyAware exactly.
func GreedyPack(ctx context.Context, model *core.Model, spec simproc.Spec, jobs []string, cfg PackConfig) ([][]string, error) {
	if model == nil {
		return nil, invalidf("nil model")
	}
	if cfg.MaxSlowdown <= 1 {
		return nil, invalidf("QoS bound %v must exceed 1", cfg.MaxSlowdown)
	}
	if cfg.PState < 0 || cfg.PState >= model.PStates() {
		return nil, invalidf("P-state %d out of range [0,%d)", cfg.PState, model.PStates())
	}
	if err := spec.Validate(); err != nil {
		return nil, invalidf("%v", err)
	}
	for _, j := range jobs {
		if !model.HasApp(j) {
			return nil, invalidf("unknown app %q", j)
		}
	}
	eng, err := newEngine(model, []Machine{{
		Spec: spec, Cores: spec.Cores, PStates: []int{cfg.PState},
	}}, jobs, MinDegradation, cfg.MaxSlowdown)
	if err != nil {
		return nil, err
	}

	var placed [][]int // machine → job indices, placement order
	var cands []int
	for ji := range jobs {
		eng.begin()
		cands = cands[:0]
		for mi, mem := range placed {
			if len(mem) >= spec.Cores {
				continue
			}
			eng.ask(0, false, mem, -1, ji)
			cands = append(cands, mi)
		}
		scores, err := eng.scoreAll(ctx)
		if err != nil {
			return nil, err
		}
		best, bestWorst := -1, 0.0
		for c, sc := range scores {
			if sc.worst <= cfg.MaxSlowdown && (best == -1 || sc.worst < bestWorst) {
				best, bestWorst = c, sc.worst
			}
		}
		if best == -1 && cfg.MaxMachines > 0 && len(placed) >= cfg.MaxMachines {
			// Fleet is capped: fall back to the least-bad machine.
			for c, sc := range scores {
				if best == -1 || sc.worst < bestWorst {
					best, bestWorst = c, sc.worst
				}
			}
			if best == -1 {
				return nil, fmt.Errorf("placement: fleet capped at %d machines and all cores busy", cfg.MaxMachines)
			}
		}
		if best == -1 {
			placed = append(placed, []int{ji})
			continue
		}
		placed[cands[best]] = append(placed[cands[best]], ji)
	}
	var out [][]string
	for _, mem := range placed {
		names := make([]string, len(mem))
		for k, ji := range mem {
			names[k] = jobs[ji]
		}
		out = append(out, names)
	}
	return out, nil
}
