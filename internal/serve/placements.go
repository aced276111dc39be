package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"colocmodel/internal/core"
	"colocmodel/internal/obs"
	"colocmodel/internal/placement"
)

// ---- placements ----

// PlacementMachineRequest describes one fleet machine (or, with Count,
// a group of identical machines) in a placement request.
type PlacementMachineRequest struct {
	// Name labels the machine in plans; defaults to its fleet index.
	Name string `json:"name,omitempty"`
	// Machine selects the processor model ("6core", "12core" or a spec
	// name); empty infers the model's training machine.
	Machine string `json:"machine,omitempty"`
	// Cores bounds how many cores the optimizer may use (0 = all).
	Cores int `json:"cores,omitempty"`
	// PStates are the allowed P-state indices (empty = all the model
	// and machine both support).
	PStates []int `json:"pstates,omitempty"`
	// Count replicates this machine description (0 and 1 mean one).
	Count int `json:"count,omitempty"`
}

// PlacementsRequest asks the optimizer for a fleet placement.
type PlacementsRequest struct {
	// Model names the registry entry; empty selects the default.
	Model string `json:"model,omitempty"`
	// Machines describes the fleet.
	Machines []PlacementMachineRequest `json:"machines"`
	// Apps are the pending applications, one entry per copy.
	Apps []string `json:"apps"`
	// Objective is "slowdown" (default) or "energy".
	Objective string `json:"objective,omitempty"`
	// MaxSlowdown is the per-app QoS bound on predicted interference
	// slowdown (0 disables, otherwise must exceed 1).
	MaxSlowdown float64 `json:"max_slowdown,omitempty"`
	// Seed drives local-search sampling (reproducible plans).
	Seed uint64 `json:"seed,omitempty"`
	// Beam is the number of candidate moves sampled per local-search
	// round; 0 disables local search (greedy construction only).
	Beam int `json:"beam,omitempty"`
	// MaxRounds caps local-search rounds (0 = default).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Stream switches the response to NDJSON: one line per improving
	// plan as the search finds them, then a final line with the result.
	Stream bool `json:"stream,omitempty"`
}

// PlacementsResponse is the sync placement result.
type PlacementsResponse struct {
	Model     string                `json:"model"`
	Objective string                `json:"objective"`
	Plan      *placement.Plan       `json:"plan"`
	Search    placement.SearchStats `json:"search"`
}

// PlacementsStreamEvent is one NDJSON line of a streaming placement
// response: intermediate lines carry an improving plan (final=false),
// the last line carries the final plan plus search stats (final=true).
type PlacementsStreamEvent struct {
	Final  bool                   `json:"final"`
	Plan   *placement.Plan        `json:"plan,omitempty"`
	Search *placement.SearchStats `json:"search,omitempty"`
	Error  *errorDetail           `json:"error,omitempty"`
}

// PlacementProblem validates a placement request against the model and
// the caller's limits on apps, expanded fleet size and beam width, and
// expands it into an optimizer problem: the one fleet expansion behind
// both POST /v1/placements and cmd/coloplan. Every failure is an *Error
// carrying a typed 400.
func PlacementProblem(req PlacementsRequest, m *core.Model, maxApps, maxMachines, maxBeam int) (placement.Problem, error) {
	var prob placement.Problem
	if len(req.Apps) == 0 {
		return prob, badRequest(CodeBadRequest, "apps must not be empty")
	}
	if len(req.Apps) > maxApps {
		return prob, badRequest(CodeBadRequest, "%d apps exceed limit %d", len(req.Apps), maxApps)
	}
	for _, a := range req.Apps {
		if !m.HasApp(a) {
			return prob, badRequest(CodeUnknownApp, "unknown app %q (known: %s)", a, strings.Join(m.Apps(), ", "))
		}
	}
	if len(req.Machines) == 0 {
		return prob, badRequest(CodeBadRequest, "machines must not be empty")
	}
	obj, err := placement.ObjectiveByName(req.Objective)
	if err != nil {
		return prob, badRequest(CodeBadRequest, "%v", err)
	}
	if req.Beam < 0 || req.Beam > maxBeam {
		return prob, badRequest(CodeBadRequest, "beam %d out of [0,%d]", req.Beam, maxBeam)
	}
	var machines []placement.Machine
	for i, mr := range req.Machines {
		count := mr.Count
		if count == 0 {
			count = 1
		}
		if count < 0 {
			return prob, badRequest(CodeBadRequest, "machine %d: negative count %d", i, count)
		}
		// Not len(machines)+count > max: a count near the integer limit
		// wraps that sum negative and the expansion below never ends.
		if count > maxMachines-len(machines) {
			return prob, badRequest(CodeBadRequest, "fleet exceeds limit of %d machines", maxMachines)
		}
		spec, e := resolveMachine(mr.Machine, m)
		if e != nil {
			return prob, e
		}
		if mr.Cores < 0 || mr.Cores > spec.Cores {
			return prob, badRequest(CodeBadRequest, "machine %d: %d cores out of [0,%d]", i, mr.Cores, spec.Cores)
		}
		maxPS := m.PStates()
		if n := spec.PStates.Len(); n < maxPS {
			maxPS = n
		}
		for _, ps := range mr.PStates {
			if ps < 0 || ps >= maxPS {
				return prob, badRequest(CodeBadPState,
					"machine %d: P-state %d conflicts with the model/machine tables (range [0,%d))", i, ps, maxPS)
			}
		}
		for c := 0; c < count; c++ {
			pm := placement.Machine{Name: mr.Name, Spec: spec, Cores: mr.Cores,
				PStates: append([]int(nil), mr.PStates...)}
			if pm.Name != "" && count > 1 {
				pm.Name = pm.Name + "-" + strconv.Itoa(c)
			}
			machines = append(machines, pm)
		}
	}
	return placement.Problem{
		Model:     m,
		Machines:  machines,
		Apps:      req.Apps,
		Objective: obj,
		QoSBound:  req.MaxSlowdown,
		Seed:      req.Seed,
		Beam:      req.Beam,
		MaxRounds: req.MaxRounds,
	}, nil
}

// placementError maps optimizer failures: malformed problems that
// slipped past request validation are still client mistakes (400), a
// context expiring before any plan exists is a timeout, anything else
// is a fault.
func placementError(ctx context.Context, err error) *Error {
	if placement.IsInvalid(err) {
		return badRequest(CodeBadRequest, "%v", err)
	}
	if ctx.Err() != nil {
		return &Error{Status: http.StatusServiceUnavailable, Code: CodeTimeout,
			Message: "request timed out before a plan was constructed"}
	}
	return asError(err)
}

// handlePlacements serves POST /v1/placements in both modes. The sync
// path returns the final result like every other endpoint; the
// streaming path commits an NDJSON response and flushes one line per
// improving plan as local search finds them, so a scheduling client can
// act on a good-enough plan before convergence — it writes for itself
// (and so carries no Server-Timing: trailers would be the only correct
// vehicle once the body has begun) and returns a nil body. The search
// runs under the request context bounded by the request's deadline:
// timeout or disconnect mid-search yields the best plan found so far
// (stats flag it), matching the optimizer's contract.
func (s *Server) handlePlacements(w http.ResponseWriter, r *http.Request, rq obs.Request) (int, any) {
	ctx, cancel := context.WithDeadline(r.Context(), s.deadline(rq))
	defer cancel()
	sp := rq.Trace.StartSpan("decode")
	var req PlacementsRequest
	e := decodeRequest(r, &req)
	sp.End()
	var rm resolved
	if e == nil {
		rm, e = s.resolveModel(req.Model)
	}
	var prob placement.Problem
	if e == nil {
		var err error
		prob, err = PlacementProblem(req, rm.m, maxPlacementApps, maxPlacementMachines, maxPlacementBeam)
		if err != nil {
			e = asError(err)
		}
	}
	if e != nil {
		return errBody(e)
	}

	// Search-stage spans: construct runs until the first incremental
	// plan exists, local_search until the optimizer returns, and the
	// terminal span records how the search ended.
	csp := rq.Trace.StartSpan("construct")
	var lsp obs.Span
	var enc *json.Encoder
	var flusher http.Flusher
	streamed := 0
	onImprove := func(p *placement.Plan) {
		if streamed == 0 {
			csp.End()
			lsp = rq.Trace.StartSpan("local_search")
		}
		streamed++
		if enc == nil {
			return
		}
		_ = enc.Encode(PlacementsStreamEvent{Plan: p})
		if flusher != nil {
			flusher.Flush()
		}
	}
	if req.Stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc = json.NewEncoder(w)
		flusher, _ = w.(http.Flusher)
	}

	res, err := placement.Optimize(ctx, prob, onImprove)
	if streamed == 0 {
		csp.End()
	} else {
		lsp.End()
	}
	if err != nil {
		e := placementError(ctx, err)
		if req.Stream {
			// The status line is already committed; surface the failure
			// as a terminal NDJSON line instead.
			_ = enc.Encode(PlacementsStreamEvent{Final: true,
				Error: &errorDetail{Code: e.Code, Message: e.Message}})
			return http.StatusOK, nil
		}
		return errBody(e)
	}
	end := "converged"
	switch {
	case res.Stats.TimedOut:
		end = "timed_out"
	case !res.Stats.Converged:
		end = "round_capped"
	}
	esp := rq.Trace.StartSpan(end)
	esp.Annotate("rounds", strconv.Itoa(res.Stats.Rounds))
	esp.Annotate("improvements", strconv.Itoa(res.Stats.Improvements))
	esp.Annotate("scenarios", strconv.Itoa(res.Stats.Scenarios))
	esp.End()

	if req.Stream {
		_ = enc.Encode(PlacementsStreamEvent{Final: true, Plan: res.Plan, Search: &res.Stats})
		if flusher != nil {
			flusher.Flush()
		}
		return http.StatusOK, nil
	}
	return http.StatusOK, PlacementsResponse{
		Model:     rm.name,
		Objective: prob.Objective.String(),
		Plan:      res.Plan,
		Search:    res.Stats,
	}
}
