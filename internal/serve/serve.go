// Package serve is the online inference tier: an HTTP JSON server that
// turns trained co-location models into a queryable service. The paper
// frames a trained model as a deployable artefact a resource manager
// consults at schedule time; this package is that consultation surface,
// built for heavy traffic from three reusable layers:
//
//   - Registry: named models with lock-free reads and atomic hot-swap,
//     so a re-trained model replaces its predecessor without dropping a
//     request.
//   - Wire: hand-written request decoders and reply encoders, byte for
//     byte what encoding/json reads and writes. A single predict is
//     decode → validate → eval → encode on one registry snapshot, which
//     carries the model, its serving table and its generation together.
//   - Metrics: request/error counters and per-endpoint latency
//     histograms in Prometheus text format, stdlib only.
//
// A fourth, optional layer closes the adaptation loop (EnableAdaptation):
// deployed schedulers report measured runtimes to POST /v1/observations,
// residual drift is watched per (model × target) stream, and a tripped
// detector can trigger gated background retraining with atomic promotion.
//
// Endpoints: POST /v1/predict, POST /v1/predict/batch, POST
// /v1/schedule, POST /v1/placements, POST /v1/models/reload, GET
// /v1/models, POST /v1/observations, GET /v1/drift, POST /v1/retrain,
// GET /v1/retrain/status, GET /v1/version, GET /v1/traces, GET /v1/slo,
// GET /healthz, GET /metrics. Client mistakes (unknown app or model, out-of-range
// P-state, malformed JSON) return 400 with a typed error body (413 for
// an oversized one); only genuine faults return 500. The endpoints
// that can run long (batch, schedule, placements, observations) run
// under a context timeout.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/obs"
	"colocmodel/internal/placement"
	"colocmodel/internal/sched"
	"colocmodel/internal/simproc"
)

// Config tunes the server.
type Config struct {
	// RequestTimeout bounds the processing time of a batch, schedule,
	// placements or observations request. Default 10s.
	RequestTimeout time.Duration
	// MaxBatch caps scenarios per batch request. Default 4096.
	MaxBatch int
	// MaxScheduleJobs caps jobs per schedule request. Default 1024.
	MaxScheduleJobs int
	// MaxPlacementApps caps pending apps per placement request.
	// Default 256.
	MaxPlacementApps int
	// MaxPlacementMachines caps the fleet size per placement request.
	// Default 64.
	MaxPlacementMachines int
	// MaxPlacementBeam caps the local-search beam width per placement
	// request. Default 64.
	MaxPlacementBeam int
	// The five observability knobs, passed to the request edge as an
	// obs.EdgeConfig, which documents them and owns their defaults
	// (0 = default, negative = off).
	Logger           *slog.Logger
	SlowThreshold    time.Duration
	TraceRing        int
	SLOObjective     float64
	SLOLatencyTarget time.Duration
}

func (c *Config) defaults() {
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 4096
	}
	if c.MaxScheduleJobs == 0 {
		c.MaxScheduleJobs = 1024
	}
	if c.MaxPlacementApps == 0 {
		c.MaxPlacementApps = 256
	}
	if c.MaxPlacementMachines == 0 {
		c.MaxPlacementMachines = 64
	}
	if c.MaxPlacementBeam == 0 {
		c.MaxPlacementBeam = 64
	}
}

// Server serves predictions from a model registry.
type Server struct {
	cfg      Config
	reg      *Registry
	metrics  *Metrics
	edge     *obs.Edge   // the request envelope every endpoint runs under
	adapt    *Adaptation // nil when the adaptation loop is disabled
	started  time.Time
	pprofOn  bool
	draining atomic.Bool

	muxOnce sync.Once
	mux     http.Handler
}

// New builds a server around a registry.
func New(reg *Registry, cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		started: time.Now(),
	}
	s.metrics = NewMetrics(func() float64 { return float64(reg.Len()) })
	s.metrics.reg.Collect(s.collectAdaptation)
	s.edge = obs.NewEdge(obs.EdgeConfig{Logger: cfg.Logger, TraceRing: cfg.TraceRing, SlowThreshold: cfg.SlowThreshold,
		SLOObjective: cfg.SLOObjective, SLOLatencyTarget: cfg.SLOLatencyTarget},
		http.StatusBadRequest, s.metrics.reg, s.metrics.endpoints, s.metrics.inFlight)
	return s
}

// Registry returns the server's model registry.
func (s *Server) Registry() *Registry { return s.reg }

// Metrics returns the server's metrics layer.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Tracer returns the server's span tracer (nil when tracing is
// disabled via a negative Config.TraceRing).
func (s *Server) Tracer() *obs.Tracer { return s.edge.Tracer() }

// SLO returns the server's SLO tracker (nil when disabled via a
// negative Config.SLOObjective).
func (s *Server) SLO() *obs.SLOTracker { return s.edge.SLO() }

// EnablePprof registers the net/http/pprof handlers under /debug/pprof/
// on the server's mux. Opt-in (profiles expose internals and cost CPU
// while running) and must be called before Handler().
func (s *Server) EnablePprof() { s.pprofOn = true }

// Handler returns the server's HTTP routing table. The mux is built
// once and shared, so external drivers (tests, the loadgen harness)
// that call Handler per request hit the same routing table the network
// listener uses instead of rebuilding it each time.
func (s *Server) Handler() http.Handler {
	s.muxOnce.Do(func() {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/predict", s.wrap("predict", s.handlePredict))
		mux.HandleFunc("POST /v1/predict/batch", s.wrap("predict_batch", s.withDeadline(s.handlePredictBatch)))
		mux.HandleFunc("POST /v1/schedule", s.wrap("schedule", s.withDeadline(s.handleSchedule)))
		mux.HandleFunc("POST /v1/placements", s.wrap("placements", s.withDeadline(s.handlePlacements)))
		mux.HandleFunc("GET /v1/models", s.wrap("models", s.handleModels))
		mux.HandleFunc("POST /v1/models/reload", s.wrap("reload", s.handleReload))
		mux.HandleFunc("POST /v1/observations", s.wrap("observations", s.withDeadline(s.handleObservations)))
		mux.HandleFunc("GET /v1/drift", s.wrap("drift", s.handleDrift))
		mux.HandleFunc("POST /v1/retrain", s.wrap("retrain", s.handleRetrain))
		mux.HandleFunc("GET /v1/retrain/status", s.wrap("retrain_status", s.handleRetrainStatus))
		mux.HandleFunc("GET /v1/version", s.wrap("version", s.handleVersion))
		mux.HandleFunc("GET /v1/traces", s.wrap("traces", s.handleTraces))
		mux.HandleFunc("GET /v1/slo", s.wrap("slo", s.handleSLO))
		mux.HandleFunc("GET /healthz", s.wrap("healthz", s.handleHealthz))
		scrapes := s.edge.Route("metrics")
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			scrapes.Scrape(w, r, func(out io.Writer, _ *obs.Trace) { s.metrics.reg.Write(out) })
		})
		if s.pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		s.mux = mux
	})
	return s.mux
}

// handlerFunc processes one request under its (possibly nil) trace and
// returns a status and a JSON-encodable body for wrap to write; a nil
// body means the handler wrote its own response (placements streams).
type handlerFunc func(w http.ResponseWriter, r *http.Request, tr *obs.Trace) (int, any)

// errorBody is the JSON error envelope.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func errBody(e *Error) (int, any) {
	return e.Status, errorBody{Error: errorDetail{Code: e.Code, Message: e.Message}}
}

// hdrServerTiming is assigned directly: already canonical, so
// Header.Set's canonicalisation would be wasted work on every request.
const hdrServerTiming = "Server-Timing"

// shed answers a request arriving during shutdown with a typed,
// retryable 503: the Retry-After header plus the stable "draining" code
// let a routing tier distinguish a backend that is shedding (re-route,
// come back) from one that is dead (eject).
func (s *Server) shed(w http.ResponseWriter) int {
	w.Header().Set("Retry-After", "1")
	status, body := errBody(&Error{Status: http.StatusServiceUnavailable,
		Code: CodeDraining, Message: "server is draining for shutdown"})
	writeJSON(w, status, body)
	return status
}

// withDeadline runs a handler under the per-request timeout. The scalar
// predict, the retrain trigger and the read-only endpoints never
// consult their context, so they are registered without it and pay for
// no timer.
func (s *Server) withDeadline(h handlerFunc) handlerFunc {
	return func(w http.ResponseWriter, r *http.Request, tr *obs.Trace) (int, any) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		return h(w, r.WithContext(ctx), tr)
	}
}

// wrap runs a handler under the request edge (obs.Edge: request ID,
// root span under the caller's traceparent, in-flight, log line, metrics,
// SLO) and adds what is the node's own: requests arriving during a drain
// are shed; the body is encoded into a pooled buffer before any header
// is written, so the encode span lands in the Server-Timing header that
// carries the completed stage timings; and a sampled trace context
// additionally ships the completed span tree back in X-Trace-Spans so
// the caller can stitch a cross-process tree. A handler that panics is
// accounted as the 500 it amounts to.
func (s *Server) wrap(endpoint string, h handlerFunc) http.HandlerFunc {
	route := s.edge.Route(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		rq := route.Begin(w, r)
		status := http.StatusInternalServerError
		defer func() { route.End(rq, r, status) }()
		if s.draining.Load() {
			status = s.shed(w)
			return
		}
		tr := rq.Trace
		var body any
		if status, body = h(w, r, tr); body == nil {
			return
		}
		enc := tr.StartSpan("encode")
		wb := getWireBuf()
		encErr := encodeBody(wb, body)
		enc.End()
		// Ship spans only for requests at or past the slow threshold —
		// the same bar both tiers retain traces at. Fast requests would
		// have their tree discarded by every ring anyway, so encoding
		// and shipping it would be pure hot-path overhead.
		if rq.Parent.Sampled && s.edge.Slow(time.Since(rq.Start)) {
			if ws := tr.WireSpans(); ws != "" {
				w.Header().Set(obs.TraceSpansHeader, ws)
			}
		}
		if st := tr.ServerTiming(); st != "" {
			w.Header()[hdrServerTiming] = []string{st}
		}
		writeBody(w, status, wb, encErr)
	}
}

// ---- predict ----

// ScenarioRequest is the wire form of a co-location scenario.
type ScenarioRequest struct {
	// Target is the target application name.
	Target string `json:"target"`
	// CoApps are the co-located application names (one per copy).
	CoApps []string `json:"co_apps"`
	// PState is the P-state index.
	PState int `json:"pstate"`
}

func (sr ScenarioRequest) scenario() features.Scenario {
	return features.Scenario{Target: sr.Target, CoApps: sr.CoApps, PState: sr.PState}
}

// CanonicalScenario renders a scenario as "target|pstate|co1|co2|..."
// with the co-apps sorted. Co-runner order is irrelevant to the model's
// features (they are sums), so "canneal with [cg ep]" and "canneal with
// [ep cg]" canonicalise identically. The cluster router hashes this form
// onto its ring; a cross-package test pins it.
func CanonicalScenario(sc features.Scenario) string {
	co := slices.Clone(sc.CoApps)
	slices.Sort(co)
	var b strings.Builder
	b.Grow(len(sc.Target) + 4 + 8*len(co))
	b.WriteString(sc.Target)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(sc.PState))
	for _, a := range co {
		b.WriteByte('|')
		b.WriteString(a)
	}
	return b.String()
}

// PredictRequest asks for one scenario's prediction.
type PredictRequest struct {
	// Model names the registry entry; empty selects the default model.
	Model string `json:"model,omitempty"`
	ScenarioRequest
}

// PredictResponse is one scenario's prediction.
type PredictResponse struct {
	Model string `json:"model"`
	// Generation is the registry generation of the model that served
	// this prediction, so clients can attribute observations to the
	// exact model instance that produced them.
	Generation        uint64   `json:"generation"`
	Spec              string   `json:"spec"`
	Target            string   `json:"target"`
	CoApps            []string `json:"co_apps"`
	PState            int      `json:"pstate"`
	PredictedSeconds  float64  `json:"predicted_seconds"`
	PredictedSlowdown float64  `json:"predicted_slowdown"`
	BaselineSeconds   float64  `json:"baseline_seconds"`
	// Cached is always false: every prediction is evaluated. It stays on
	// the wire until the benchmark module stops reading it (ROADMAP 3(d)).
	Cached bool `json:"cached"`
	// baselineJSON, when set, is BaselineSeconds as encoding/json
	// renders it: the serving table's text, copied rather than
	// formatted again.
	baselineJSON string
}

func (s *Server) handlePredict(_ http.ResponseWriter, r *http.Request, tr *obs.Trace) (int, any) {
	sp := tr.StartSpan("decode")
	var req PredictRequest
	e := decodeRequest(r, &req)
	sp.End()
	if e != nil {
		return errBody(e)
	}
	rm, e := s.resolveModel(req.Model)
	if e != nil {
		return errBody(e)
	}
	resp := new(PredictResponse)
	if e := predictOne(tr.Root(), &rm, req.scenario(), resp); e != nil {
		return errBody(e)
	}
	return http.StatusOK, resp
}

// resolved is one request's view of a registry entry: its name and one
// snapshot of what it serves.
type resolved struct {
	name string
	*servedModel
}

// resolveModel maps a (possibly empty) request model name to a registry
// entry, under one acquisition of the registry's read lock.
func (s *Server) resolveModel(name string) (resolved, *Error) {
	e, err := s.reg.lookup(name)
	if err != nil {
		if name == "" {
			return resolved{}, &Error{Status: http.StatusServiceUnavailable, Code: CodeUnknownModel, Message: "no models loaded"}
		}
		return resolved{}, asError(err)
	}
	return resolved{name: e.name, servedModel: e.snapshot()}, nil
}

// validateScenario rejects requests the model cannot serve before any
// prediction work happens, so that client mistakes are 400s. It reads
// the snapshot's serving table and returns the target's row of it.
func validateScenario(sm *servedModel, sc features.Scenario) (servedApp, *Error) {
	if sc.Target == "" {
		return servedApp{}, badRequest(CodeBadRequest, "target must be set")
	}
	target, ok := sm.apps[sc.Target]
	if !ok {
		return servedApp{}, badRequest(CodeUnknownApp, "unknown target %q (known: %s)", sc.Target, sm.known)
	}
	for _, a := range sc.CoApps {
		if _, ok := sm.apps[a]; !ok {
			return servedApp{}, badRequest(CodeUnknownApp, "unknown co-app %q (known: %s)", a, sm.known)
		}
	}
	if sc.PState < 0 || sc.PState >= sm.pstates {
		return servedApp{}, badRequest(CodeBadPState, "P-state %d out of range [0,%d)", sc.PState, sm.pstates)
	}
	return target, nil
}

// initPredictResponse validates a scenario against the model and fills
// the response shell (identity fields plus the baseline, as a number
// and as rendered) that both the single and batch predict paths
// complete.
func initPredictResponse(resp *PredictResponse, rm *resolved, sc features.Scenario) *Error {
	target, e := validateScenario(rm.servedModel, sc)
	if e != nil {
		return e
	}
	if sc.PState >= len(target.secs) {
		// A hand-built model whose baselines disagree about the P-state
		// count; core words the fault.
		_, err := rm.m.BaselineSeconds(sc.Target, sc.PState)
		return asError(err)
	}
	*resp = PredictResponse{
		Model: rm.name, Generation: rm.gen, Spec: rm.spec,
		Target: sc.Target, CoApps: sc.CoApps, PState: sc.PState,
		BaselineSeconds: target.secs[sc.PState], baselineJSON: target.text[sc.PState],
	}
	return nil
}

// predictOne serves one scenario into resp from rm's snapshot, timing
// the model evaluation as a child of parent — the root span for single
// predicts. Model.Predict checks a compiled instance out of the model's
// own pool.
func predictOne(parent obs.Span, rm *resolved, sc features.Scenario, resp *PredictResponse) *Error {
	if e := initPredictResponse(resp, rm, sc); e != nil {
		return e
	}
	esp := parent.StartChild("eval")
	seconds, err := rm.m.Predict(sc)
	esp.End()
	if err != nil {
		return asError(err)
	}
	resp.PredictedSeconds, resp.PredictedSlowdown = seconds, seconds/resp.BaselineSeconds
	return nil
}

// ---- predict/batch ----

// BatchRequest asks for many scenarios at once.
type BatchRequest struct {
	// Model names the registry entry for every scenario in the batch.
	Model string `json:"model,omitempty"`
	// Scenarios are predicted independently; one bad scenario fails
	// only its own slot.
	Scenarios []ScenarioRequest `json:"scenarios"`
}

// BatchItem is one slot of a batch response: a result or an error.
type BatchItem struct {
	Result *PredictResponse `json:"result,omitempty"`
	Error  *errorDetail     `json:"error,omitempty"`
}

// BatchResponse reports every scenario in request order.
type BatchResponse struct {
	Model   string      `json:"model"`
	Results []BatchItem `json:"results"`
	// Errors counts failed slots.
	Errors int `json:"errors"`
}

func (s *Server) handlePredictBatch(_ http.ResponseWriter, r *http.Request, tr *obs.Trace) (int, any) {
	sp := tr.StartSpan("decode")
	var req BatchRequest
	e := decodeRequest(r, &req)
	sp.End()
	if e != nil {
		return errBody(e)
	}
	if len(req.Scenarios) == 0 {
		return errBody(badRequest(CodeBadRequest, "scenarios must not be empty"))
	}
	if len(req.Scenarios) > s.cfg.MaxBatch {
		return errBody(badRequest(CodeBadRequest, "batch of %d exceeds limit %d", len(req.Scenarios), s.cfg.MaxBatch))
	}
	rm, e := s.resolveModel(req.Model)
	if e != nil {
		return errBody(e)
	}

	// One pass under one fanout span: validate every slot, evaluate all
	// valid ones in one batched model call — a single GEMM per network
	// layer instead of one forward pass per slot — and leave the rest to
	// the encoder. Each slot still fails independently: validation errors
	// mark only their own slot, and a request-level timeout fails the
	// un-evaluated slots rather than the whole response. Results are
	// bit-identical to per-slot Predict.
	ctx := r.Context()
	n := len(req.Scenarios)
	out := &BatchResponse{Model: rm.name, Results: make([]BatchItem, n)}
	resps := make([]PredictResponse, n) // one slab for every slot's result
	scs := make([]features.Scenario, 0, n)
	fsp := tr.StartSpan("fanout")
	fsp.Annotate("slots", strconv.Itoa(n))
	for i, sr := range req.Scenarios {
		sc := sr.scenario()
		if e := initPredictResponse(&resps[i], &rm, sc); e != nil {
			out.Results[i].Error = &errorDetail{Code: e.Code, Message: e.Message}
			out.Errors++
			continue
		}
		out.Results[i].Result = &resps[i]
		scs = append(scs, sc)
	}
	if len(scs) > 0 {
		esp := fsp.StartChild("eval")
		esp.Annotate("scenarios", strconv.Itoa(len(scs)))
		preds := make([]float64, len(scs))
		err := ctx.Err()
		if err == nil {
			err = rm.m.PredictScenariosInto(scs, preds)
		}
		esp.End()
		if err != nil {
			ed := errorDetail{Code: CodeTimeout, Message: "request timed out before this scenario was served"}
			if ctx.Err() == nil {
				e := asError(err)
				ed = errorDetail{Code: e.Code, Message: e.Message}
			}
			for i := range out.Results {
				if out.Results[i].Result != nil {
					out.Results[i] = BatchItem{Error: &ed}
					out.Errors++
				}
			}
		} else {
			j := 0
			for _, it := range out.Results {
				if resp := it.Result; resp != nil {
					resp.PredictedSeconds, resp.PredictedSlowdown = preds[j], preds[j]/resp.BaselineSeconds
					j++
				}
			}
		}
	}
	fsp.End()
	return http.StatusOK, out
}

// ---- schedule ----

// ScheduleRequest asks for a placement of jobs onto machines using the
// interference-aware greedy packer.
type ScheduleRequest struct {
	// Model names the registry entry; empty selects the default.
	Model string `json:"model,omitempty"`
	// Machine selects the fleet's machine type ("6core" or "12core");
	// empty infers it from the model's training machine.
	Machine string `json:"machine,omitempty"`
	// Jobs are the application names to place (one entry per copy).
	Jobs []string `json:"jobs"`
	// MaxSlowdown is the QoS bound (must exceed 1).
	MaxSlowdown float64 `json:"max_slowdown"`
	// PState is the fleet's operating point.
	PState int `json:"pstate"`
	// MaxMachines optionally caps the fleet (0 = unlimited).
	MaxMachines int `json:"max_machines,omitempty"`
}

// ScheduleResponse reports the placement.
type ScheduleResponse struct {
	Model        string     `json:"model"`
	Spec         string     `json:"spec"`
	Machine      string     `json:"machine"`
	Assignment   [][]string `json:"assignment"`
	MachinesUsed int        `json:"machines_used"`
	Jobs         int        `json:"jobs"`
}

func (s *Server) handleSchedule(_ http.ResponseWriter, r *http.Request, tr *obs.Trace) (int, any) {
	sp := tr.StartSpan("decode")
	var req ScheduleRequest
	e := decodeRequest(r, &req)
	sp.End()
	if e != nil {
		return errBody(e)
	}
	rm, e := s.resolveModel(req.Model)
	if e != nil {
		return errBody(e)
	}
	m := rm.m
	if len(req.Jobs) == 0 {
		return errBody(badRequest(CodeBadRequest, "jobs must not be empty"))
	}
	if len(req.Jobs) > s.cfg.MaxScheduleJobs {
		return errBody(badRequest(CodeBadRequest, "%d jobs exceed limit %d", len(req.Jobs), s.cfg.MaxScheduleJobs))
	}
	for _, j := range req.Jobs {
		if _, ok := rm.apps[j]; !ok {
			return errBody(badRequest(CodeUnknownApp, "unknown job %q (known: %s)", j, rm.known))
		}
	}
	if req.MaxSlowdown <= 1 {
		return errBody(badRequest(CodeBadRequest, "max_slowdown %v must exceed 1", req.MaxSlowdown))
	}
	if req.PState < 0 || req.PState >= rm.pstates {
		return errBody(badRequest(CodeBadPState, "P-state %d out of range [0,%d)", req.PState, rm.pstates))
	}
	spec, e := resolveMachine(req.Machine, m)
	if e != nil {
		return errBody(e)
	}
	if err := r.Context().Err(); err != nil {
		return errBody(&Error{Status: http.StatusServiceUnavailable, Code: CodeTimeout, Message: "request timed out"})
	}
	// One scoring path for the whole scheduling surface: the placement
	// engine's open-fleet greedy packer, which batches each decision's
	// candidate scoring and reproduces sched.GreedyAware exactly.
	asg, err := placement.GreedyPack(r.Context(), m, spec, req.Jobs, placement.PackConfig{
		MaxSlowdown: req.MaxSlowdown,
		PState:      req.PState,
		MaxMachines: req.MaxMachines,
	})
	if err != nil {
		if placement.IsInvalid(err) {
			return errBody(badRequest(CodeBadRequest, "%v", err))
		}
		return errBody(asError(err))
	}
	a := sched.Assignment(asg)
	return http.StatusOK, ScheduleResponse{
		Model: rm.name, Spec: rm.spec, Machine: spec.Name,
		Assignment: a, MachinesUsed: a.MachinesUsed(), Jobs: a.JobCount(),
	}
}

// resolveMachine maps a request machine name to a simulator spec,
// defaulting to the machine the model was trained on.
func resolveMachine(name string, m *core.Model) (simproc.Spec, *Error) {
	if name == "" {
		for _, spec := range simproc.Machines() {
			if spec.Name == m.Machine() {
				return spec, nil
			}
		}
		return simproc.Spec{}, badRequest(CodeBadRequest,
			"model machine %q is not a known fleet type; set \"machine\" explicitly", m.Machine())
	}
	switch name {
	case "6core", "e5649", "E5649":
		return simproc.XeonE5649(), nil
	case "12core", "e5-2697v2", "E5-2697v2":
		return simproc.XeonE52697v2(), nil
	}
	for _, spec := range simproc.Machines() {
		if spec.Name == name {
			return spec, nil
		}
	}
	return simproc.Spec{}, badRequest(CodeBadRequest, "unknown machine %q (want 6core or 12core)", name)
}

// ---- models / reload / health / metrics ----

// ModelsResponse lists the registry.
type ModelsResponse struct {
	Default string      `json:"default"`
	Models  []ModelInfo `json:"models"`
}

func (s *Server) handleModels(_ http.ResponseWriter, r *http.Request, _ *obs.Trace) (int, any) {
	return http.StatusOK, ModelsResponse{Default: s.reg.DefaultName(), Models: s.reg.List()}
}

// ReloadResponse reports a registry reload.
type ReloadResponse struct {
	Reloaded []string `json:"reloaded"`
}

func (s *Server) handleReload(_ http.ResponseWriter, r *http.Request, _ *obs.Trace) (int, any) {
	reloaded, err := s.reg.Reload()
	if err != nil {
		s.metrics.SwapsRecorded(len(reloaded))
		return errBody(internalError(err))
	}
	s.metrics.SwapsRecorded(len(reloaded))
	if reloaded == nil {
		reloaded = []string{}
	}
	return http.StatusOK, ReloadResponse{Reloaded: reloaded}
}

// HealthResponse is the liveness body. The base contract is unchanged
// ({"status":"ok","models":N}); ?verbose=1 adds uptime, the serving
// generation per model, and build info.
type HealthResponse struct {
	Status string `json:"status"`
	Models int    `json:"models"`
	// Verbose fields (GET /healthz?verbose=1).
	UptimeSeconds float64           `json:"uptime_seconds,omitempty"`
	Generations   map[string]uint64 `json:"generations,omitempty"`
	GoVersion     string            `json:"go_version,omitempty"`
	Revision      string            `json:"vcs_revision,omitempty"`
	Adaptation    bool              `json:"adaptation,omitempty"`
	Tracing       bool              `json:"tracing,omitempty"`
}

func (s *Server) handleHealthz(_ http.ResponseWriter, r *http.Request, _ *obs.Trace) (int, any) {
	n := s.reg.Len()
	resp := HealthResponse{Status: "ok", Models: n}
	status := http.StatusOK
	if n == 0 {
		resp.Status = "no models loaded"
		status = http.StatusServiceUnavailable
	}
	if v := r.URL.Query().Get("verbose"); v != "" && v != "0" && v != "false" {
		resp.UptimeSeconds = time.Since(s.started).Seconds()
		resp.Generations = make(map[string]uint64, n)
		for _, info := range s.reg.List() {
			resp.Generations[info.Name] = info.Generation
		}
		if bi, ok := debug.ReadBuildInfo(); ok {
			resp.GoVersion = bi.GoVersion
			for _, kv := range bi.Settings {
				if kv.Key == "vcs.revision" {
					resp.Revision = kv.Value
				}
			}
		}
		resp.Adaptation = s.adapt != nil
		resp.Tracing = s.edge.Tracer() != nil
	}
	return status, resp
}

// ---- traces / SLO ----

// handleTraces serves the trace ring.
func (s *Server) handleTraces(_ http.ResponseWriter, r *http.Request, _ *obs.Trace) (int, any) {
	resp, err := s.edge.Traces(r.URL.Query())
	if err != nil {
		return errBody(edgeRefusal(err, CodeTracingDisabled))
	}
	return http.StatusOK, resp
}

// handleSLO serves the predict-path SLO verdict.
func (s *Server) handleSLO(_ http.ResponseWriter, _ *http.Request, _ *obs.Trace) (int, any) {
	st, err := s.edge.SLOStatus()
	if err != nil {
		return errBody(edgeRefusal(err, CodeSLODisabled))
	}
	return http.StatusOK, st
}

// edgeRefusal types what the edge declines to answer: a feature this
// server runs without is a 503 under the feature's own code, anything
// else a bad query.
func edgeRefusal(err error, offCode string) *Error {
	if errors.Is(err, obs.ErrDisabled) {
		return &Error{Status: http.StatusServiceUnavailable, Code: offCode, Message: err.Error()}
	}
	return badRequest(CodeBadRequest, "%v", err)
}

// ListenAndServe runs the server on addr until ctx is cancelled, then
// drains in-flight requests for up to drain before forcing connections
// closed. It is the graceful-shutdown harness cmd/coloserve uses.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drain time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln, drain)
}

// StartDrain flips the server into drain mode: every subsequent request
// on a wrapped endpoint is shed with a typed 503 ("draining") carrying a
// Retry-After header, while requests already past admission complete
// normally. Serve calls it on shutdown; it is idempotent and exported so
// operators (and tests) can shed ahead of a planned stop.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether the server is shedding for shutdown.
func (s *Server) Draining() bool { return s.draining.Load() }

// Serve runs the server on an existing listener until ctx is cancelled,
// then drains in-flight requests for up to drain. Cancellation stops
// accepting new connections immediately and sheds requests arriving on
// kept-alive connections with a typed 503 (StartDrain); requests already
// being processed complete normally.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	return ServeGracefully(ctx, ln, s.Handler(), drain, s.StartDrain)
}

// ServeGracefully is the serve loop of both HTTP tiers: it serves h on
// ln until ctx is cancelled, calls beforeShutdown (when non-nil), then
// gives in-flight requests up to drain to complete before connections
// are forced closed (http.Server.Shutdown semantics).
func ServeGracefully(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration, beforeShutdown func()) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if beforeShutdown != nil {
		beforeShutdown()
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
