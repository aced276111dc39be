package placement

import (
	"context"
	"encoding/binary"
	"slices"

	"colocmodel/internal/core"
)

// machineClass groups machines that score identically: same processor,
// usable core count and allowed P-states. Scores are memoised per
// (class, resident multiset), so a 64-machine homogeneous fleet shares
// one score table.
type machineClass struct {
	machine   Machine
	corePower []float64 // one busy core's dynamic power, aligned with machine.PStates
}

func (c *machineClass) holds(m Machine) bool {
	return c.machine.Spec.Name == m.Spec.Name && c.machine.Cores == m.Cores &&
		slices.Equal(c.machine.PStates, m.PStates)
}

// appScore is one resident's predicted outcome on a scored machine.
type appScore struct {
	predictedSeconds float64
	baselineSeconds  float64 // at the scored P-state
	slowdown         float64
	degradation      float64
}

// machineScore is one machine membership's best account over the
// machine's allowed P-states.
type machineScore struct {
	pstate      int
	perApp      []appScore // aligned with the sorted residents
	violations  int
	degradation float64
	slowSum     float64
	energyJ     float64
	objective   float64
}

var emptyScore = &machineScore{}

// scoreReq asks for one (class, resident multiset) score: the residents
// are the app ids ids[lo:hi] of the engine's round arena, sorted. pin
// scores the class's first allowed P-state only (the pack-first
// baseline); otherwise the P-state is co-optimised over all of them.
type scoreReq struct {
	class  int
	lo, hi int
	pin    bool
}

// miss is a requested membership the memo did not hold: its rows start
// at row in the round's prediction batch, perState of them (one per
// distinct resident, none for a lone resident) for each P-state.
type miss struct {
	req      scoreReq
	key      string
	sc       *machineScore
	row      int
	perState int
}

// engine scores machine memberships through batched model calls, with a
// memo so repeated candidates (local search revisits neighbourhoods
// constantly) cost nothing. Apps are the model's own application ids
// (core.Model.AppID), resolved once when the engine is built: ids are
// ordered like names, so an id-sorted membership is the name-sorted one,
// the model sees co-runners in name order, and the rows it is asked for
// are rows of ids it evaluates without a name lookup. Everything a round
// needs lives in buffers the engine keeps for the whole search, so a
// candidate costs no allocation beyond its memo entry.
type engine struct {
	model     *core.Model
	obj       Objective
	qos       float64
	classes   []machineClass
	classOf   []int     // machine index → class index
	appID     []int32   // app (or job) index → model app id
	pstates   int       // the model's P-state count: the stride of base
	base      []float64 // id*pstates + P-state → baseline seconds
	memo      map[string]*machineScore
	scenarios int

	// One round's requests, reset by begin.
	ids  []int32
	reqs []scoreReq

	// scoreAll's buffers.
	out     []*machineScore
	key     []byte
	misses  []miss
	rows    []core.IDScenario
	co      []int32 // arena the rows' co-runner lists are carved from
	preds   []float64
	scratch [2]machineScore

	// Slabs the memo's entries are carved from.
	scores []machineScore
	apps   []appScore
}

// newEngine resolves apps to the model's ids and tables what scoring
// would otherwise look up per resident per P-state: baselines per (id,
// P-state) and each class's per-core power at its allowed P-states.
func newEngine(model *core.Model, machines []Machine, apps []string, obj Objective, qos float64) (*engine, error) {
	e := &engine{
		model:   model,
		obj:     obj,
		qos:     qos,
		classOf: make([]int, len(machines)),
		appID:   make([]int32, len(apps)),
		pstates: model.PStates(),
		memo:    make(map[string]*machineScore),
	}
	n := 0
	for i, a := range apps {
		id, ok := model.AppID(a)
		if !ok {
			return nil, invalidf("unknown app %q", a)
		}
		e.appID[i] = id
		n = max(n, int(id)+1)
	}
	e.base = make([]float64, n*e.pstates)
	for i, id := range e.appID {
		row := e.base[int(id)*e.pstates : int(id+1)*e.pstates]
		if row[0] != 0 {
			continue // an earlier copy of the app filled it
		}
		for ps := range row {
			b, err := model.BaselineSeconds(apps[i], ps)
			if err != nil {
				return nil, err
			}
			row[ps] = b
		}
	}
	for i, m := range machines {
		ci := slices.IndexFunc(e.classes, func(c machineClass) bool { return c.holds(m) })
		if ci < 0 {
			ci = len(e.classes)
			c := machineClass{machine: m, corePower: make([]float64, len(m.PStates))}
			for k, ps := range m.PStates {
				st, err := m.Spec.PStates.State(ps)
				if err != nil {
					return nil, err
				}
				c.corePower[k] = st.DynamicPowerW(m.Spec.CoreCEffW)
			}
			e.classes = append(e.classes, c)
		}
		e.classOf[i] = ci
	}
	return e, nil
}

// begin starts a round of requests, recycling the previous round's.
func (e *engine) begin() {
	e.ids, e.reqs = e.ids[:0], e.reqs[:0]
}

// ask requests the score, on class, of the membership made of the apps
// at indices mem with the one at index except removed and the one at
// index extra added (< 0 removes, adds, nobody). The residents' ids go
// into the round's arena sorted, by insertion: a membership is at most
// one machine's cores.
func (e *engine) ask(class int, pin bool, mem []int, except, extra int) {
	lo := len(e.ids)
	for _, ai := range mem {
		if ai != except {
			e.ids = append(e.ids, e.appID[ai])
		}
	}
	if extra >= 0 {
		e.ids = append(e.ids, e.appID[extra])
	}
	w := e.ids[lo:]
	for i := 1; i < len(w); i++ {
		for j := i; j > 0 && w[j] < w[j-1]; j-- {
			w[j], w[j-1] = w[j-1], w[j]
		}
	}
	e.reqs = append(e.reqs, scoreReq{class: class, lo: lo, hi: len(e.ids), pin: pin})
}

// states is how many of its class's allowed P-states a request scores.
func (e *engine) states(r scoreReq) int {
	if r.pin {
		return 1
	}
	return len(e.classes[r.class].machine.PStates)
}

// scoreAll resolves the round's requests, predicting all memo misses in
// one batched model call. Results are in request order and valid until
// the next call; requests may repeat (repeats share one entry).
func (e *engine) scoreAll(ctx context.Context) ([]*machineScore, error) {
	e.out, e.misses, e.rows, e.co = e.out[:0], e.misses[:0], e.rows[:0], e.co[:0]
	for _, r := range e.reqs {
		if r.lo == r.hi {
			e.out = append(e.out, emptyScore)
			continue
		}
		// The key is exact: class, pin and every id, each a uvarint.
		pin := uint64(0)
		if r.pin {
			pin = 1
		}
		e.key = binary.AppendUvarint(e.key[:0], uint64(r.class)<<1|pin)
		for _, id := range e.ids[r.lo:r.hi] {
			e.key = binary.AppendUvarint(e.key, uint64(id))
		}
		sc, ok := e.memo[string(e.key)]
		if !ok {
			if len(e.misses) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			// The entry goes in before it is filled, so a repeat later in
			// the round finds it like any other hit.
			sc = e.newScore()
			key := string(e.key)
			e.memo[key] = sc
			p := miss{req: r, key: key, sc: sc, row: len(e.rows)}
			p.perState = e.appendRows(r)
			e.misses = append(e.misses, p)
		}
		e.out = append(e.out, sc)
	}
	if len(e.rows) > 0 {
		e.preds = slices.Grow(e.preds[:0], len(e.rows))[:len(e.rows)]
		if err := e.model.PredictIDsInto(e.rows, e.preds); err != nil {
			for _, p := range e.misses {
				delete(e.memo, p.key)
			}
			return nil, err
		}
		e.scenarios += len(e.rows)
	}
	for _, p := range e.misses {
		e.settle(p)
	}
	return e.out, nil
}

// appendRows adds a missed membership's scenarios to the batch: for each
// P-state, one row per distinct resident. Identical residents have the
// same target, the same co-runners in the same order and the same
// P-state, hence the same prediction bit for bit, and share the row. A
// lone resident needs none: with no co-runner its time is its solo
// baseline at that P-state, and Realise simulates it as that solo run.
// Co-runner lists are carved once and shared by the membership's
// P-states. It returns the number of rows per P-state.
func (e *engine) appendRows(r scoreReq) int {
	w := e.ids[r.lo:r.hi]
	if len(w) < 2 {
		return 0
	}
	pss := e.classes[r.class].machine.PStates[:e.states(r)]
	first := len(e.rows)
	for i, id := range w {
		if i > 0 && id == w[i-1] {
			continue
		}
		lo := len(e.co)
		for j, other := range w {
			if j != i {
				e.co = append(e.co, other)
			}
		}
		e.rows = append(e.rows, core.IDScenario{Target: id, CoApps: e.co[lo:len(e.co):len(e.co)], PState: pss[0]})
	}
	perState := len(e.rows) - first
	for _, ps := range pss[1:] {
		for _, row := range e.rows[first : first+perState] {
			row.PState = ps
			e.rows = append(e.rows, row)
		}
	}
	return perState
}

// settle fills a missed entry from the round's predictions: every
// P-state is scored into scratch and only the best account is kept.
func (e *engine) settle(p miss) {
	w := e.ids[p.req.lo:p.req.hi]
	cls := &e.classes[p.req.class]
	cur, best := &e.scratch[0], &e.scratch[1]
	for k, n := 0, e.states(p.req); k < n; k++ {
		e.scoreState(cur, cls, k, w, e.preds[p.row+k*p.perState:])
		if k == 0 || cur.betterState(best) {
			cur, best = best, cur
		}
	}
	if len(e.apps)+len(w) > cap(e.apps) {
		e.apps = make([]appScore, 0, max(512, len(w)))
	}
	lo := len(e.apps)
	e.apps = append(e.apps, best.perApp...)
	*p.sc = *best
	p.sc.perApp = e.apps[lo:len(e.apps):len(e.apps)]
}

// newScore carves an unfilled memo entry from the slab.
func (e *engine) newScore() *machineScore {
	if len(e.scores) == cap(e.scores) {
		e.scores = make([]machineScore, 0, 64)
	}
	e.scores = e.scores[:len(e.scores)+1]
	return &e.scores[len(e.scores)-1]
}

// betterState orders candidate machine states: fewer violations, then
// lower objective, then lower (faster) P-state index for determinism.
func (s *machineScore) betterState(than *machineScore) bool {
	if s.violations != than.violations {
		return s.violations < than.violations
	}
	if s.objective != than.objective {
		return s.objective < than.objective
	}
	return s.pstate < than.pstate
}

// scoreState builds into sc the account of membership w at the class's
// k-th allowed P-state. preds holds that state's rows, one per distinct
// resident in membership order (unread for a lone resident, whose
// predicted time is the baseline).
func (e *engine) scoreState(sc *machineScore, cls *machineClass, k int, w []int32, preds []float64) {
	ps := cls.machine.PStates[k]
	*sc = machineScore{pstate: ps, perApp: sc.perApp[:0]}
	sharePower := cls.corePower[k] + cls.machine.Spec.UncorePowerW/float64(len(w))
	row := -1
	for i, id := range w {
		base := e.base[int(id)*e.pstates+ps]
		pred := base
		if len(w) > 1 {
			if i == 0 || id != w[i-1] {
				row++
			}
			pred = preds[row]
		}
		a := appScore{
			predictedSeconds: pred,
			baselineSeconds:  base,
			slowdown:         pred / base,
			degradation:      pred / e.base[int(id)*e.pstates],
		}
		sc.perApp = append(sc.perApp, a)
		sc.slowSum += a.slowdown
		sc.degradation += a.degradation
		sc.energyJ += sharePower * pred
		if e.qos > 0 && a.slowdown > e.qos {
			sc.violations++
		}
	}
	if e.obj == MinEnergy {
		sc.objective = sc.energyJ
	} else {
		sc.objective = sc.degradation
	}
}
