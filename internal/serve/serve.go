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
// /v1/placements, POST /v1/models/reload, GET /v1/models, POST
// /v1/observations, GET /v1/drift, POST /v1/retrain, GET
// /v1/retrain/status, GET /v1/version, GET /v1/traces, GET /v1/slo, GET
// /healthz, GET /metrics. Client mistakes (unknown app or model,
// out-of-range P-state, malformed JSON) return 400 with a typed error
// body (413 for an oversized one); only genuine faults return 500. The
// endpoints that can run long (batch, placements, observations) run
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
	"colocmodel/internal/jsonwire"
	"colocmodel/internal/obs"
	"colocmodel/internal/simproc"
)

// Config tunes the server.
type Config struct {
	// RequestTimeout bounds the processing time of a batch or placements
	// request. 0 or negative selects the default, 10s.
	RequestTimeout time.Duration
	// The five observability knobs, passed to the request edge as an
	// obs.EdgeConfig, which documents them and owns their defaults
	// (0 = default, negative = off).
	Logger           *slog.Logger
	SlowThreshold    time.Duration
	TraceRing        int
	SLOObjective     float64
	SLOLatencyTarget time.Duration
}

// The request limits: rows per batch (predict or observations), and the
// pending apps, fleet size and beam width of one placement search.
const (
	maxBatch             = 4096
	maxPlacementApps     = 256
	maxPlacementMachines = 64
	maxPlacementBeam     = 64
)

func (c *Config) defaults() {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
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
		mux.HandleFunc("POST /v1/placements", s.wrap("placements", s.withDeadline(s.handlePlacements)))
		mux.HandleFunc("GET /v1/models", s.wrap("models", s.handleModels))
		mux.HandleFunc("POST /v1/models/reload", s.wrap("reload", s.handleReload))
		mux.HandleFunc("POST /v1/observations", s.wrap("observations", s.handleObservations))
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

// withDeadline runs a handler under the per-request timeout: batch and
// placements, the endpoints that can run long. The scalar predict, the
// observations ingest (one log append), the retrain trigger and the
// read-only endpoints never consult their context, so they are
// registered without it and pay for no timer.
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
		if p, ok := body.(pooledReply); ok {
			p.release() // the reply is written: its scratch is free
		}
	}
}

// A pooledReply is a reply body holding pooled scratch, which the edge
// releases once the reply is written.
type pooledReply interface{ release() }

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
// [ep cg]" canonicalise identically. Its remaining readers are the
// repository benchmarks, which key generated batch rows by it to keep
// them distinct.
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
	// served, when set, is the snapshot that validated the scenario, and
	// target and co the scenario's applications as ids in its id space:
	// the encoder copies the names and the baseline as the serving table
	// renders them rather than escaping and formatting them again.
	target int32
	served *servedModel
	co     []int32
}

// row is the validated scenario as the model evaluates it.
func (p *PredictResponse) row() core.IDScenario {
	return core.IDScenario{Target: p.target, CoApps: p.co, PState: p.PState}
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
	rep := new(predictReply)
	co := rep.co[:]
	if n := len(req.CoApps); n <= len(co) {
		co = co[:n]
	} else {
		co = make([]int32, n)
	}
	if e := predictOne(tr.Root(), &rm, req.scenario(), &rep.PredictResponse, co); e != nil {
		return errBody(e)
	}
	return http.StatusOK, &rep.PredictResponse
}

// predictReply is a single predict's reply with room for the co-apps' ids
// its row points at: a scenario of up to a 12-core machine's co-runners
// costs one allocation.
type predictReply struct {
	PredictResponse
	co [11]int32
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
// prediction work happens, so that client mistakes are 400s. It resolves
// each name to its id in the snapshot's id space, once, writing the
// co-apps' ids into co (one slot per co-app), and returns the scenario as
// a row of ids, which only this snapshot may evaluate. The row's co-apps
// are nil exactly when the request's are, so a reply rendered from the
// row tells a null co_apps from an empty one.
func validateScenario(sm *servedModel, sc features.Scenario, co []int32) (core.IDScenario, *Error) {
	if sc.Target == "" {
		return core.IDScenario{}, badRequest(CodeBadRequest, "target must be set")
	}
	target, ok := sm.m.AppID(sc.Target)
	if !ok {
		return core.IDScenario{}, badRequest(CodeUnknownApp, "unknown target %q (known: %s)", sc.Target, sm.known)
	}
	for i, a := range sc.CoApps {
		id, ok := sm.m.AppID(a)
		if !ok {
			return core.IDScenario{}, badRequest(CodeUnknownApp, "unknown co-app %q (known: %s)", a, sm.known)
		}
		co[i] = id
	}
	if sc.PState < 0 || sc.PState >= sm.pstates {
		return core.IDScenario{}, badRequest(CodeBadPState, "P-state %d out of range [0,%d)", sc.PState, sm.pstates)
	}
	if sc.CoApps == nil {
		co = nil
	}
	return core.IDScenario{Target: target, CoApps: co, PState: sc.PState}, nil
}

// initPredictResponse validates a scenario against the model, its
// co-apps' ids going into co, and fills the response shell (identity
// fields, the row of ids, and the baseline) that predictOne completes.
func initPredictResponse(resp *PredictResponse, rm *resolved, sc features.Scenario, co []int32) *Error {
	row, e := validateScenario(rm.servedModel, sc, co)
	if e != nil {
		return e
	}
	// The baseline index is in range: validateScenario bounds the P-state
	// by the model's table, and compileProgram refuses a model whose
	// baseline rows do not all cover it.
	*resp = PredictResponse{
		Model: rm.name, Generation: rm.gen, Spec: rm.spec,
		Target: sc.Target, CoApps: sc.CoApps, PState: sc.PState,
		BaselineSeconds: rm.apps[row.Target].secs[sc.PState], target: row.Target, served: rm.servedModel, co: row.CoApps,
	}
	return nil
}

// predictOne serves one scenario into resp from rm's snapshot, its
// co-apps' ids going into co, timing the model evaluation as a child of
// parent — the root span for single predicts.
func predictOne(parent obs.Span, rm *resolved, sc features.Scenario, resp *PredictResponse, co []int32) *Error {
	if e := initPredictResponse(resp, rm, sc, co); e != nil {
		return e
	}
	seconds, e := evalOne(parent, rm.m, resp.row())
	if e != nil {
		return e
	}
	resp.PredictedSeconds, resp.PredictedSlowdown = seconds, seconds/resp.BaselineSeconds
	return nil
}

// evalOne evaluates one validated row against the model of the snapshot
// that validated it, timed as a child of parent. PredictIDsInto checks a
// compiled instance out of the model's own pool.
func evalOne(parent obs.Span, m *core.Model, row core.IDScenario) (float64, *Error) {
	rows, out := [1]core.IDScenario{row}, [1]float64{}
	esp := parent.StartChild("eval")
	err := m.PredictIDsInto(rows[:], out[:])
	esp.End()
	if err != nil {
		return 0, asError(err)
	}
	return out[0], nil
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

// handlePredictBatch serves a batch into a pooled batchReply and returns
// it as the reply, which the edge releases once written, or releases it
// and returns an error body.
func (s *Server) handlePredictBatch(_ http.ResponseWriter, r *http.Request, tr *obs.Trace) (int, any) {
	br := batchReplyPool.Get().(*batchReply)
	if e := s.predictBatch(r, tr, br); e != nil {
		br.release()
		return errBody(e)
	}
	return http.StatusOK, br
}

// predictBatch serves a batch into br, or reports the request's error.
// One pass under one fanout span resolves every slot's names to ids
// against the request's snapshot and evaluates all valid slots in one
// batched model call; the encoder renders the reply from br directly.
// Each slot still fails independently: validation errors mark only their
// own slot, and a request-level timeout fails the un-evaluated slots
// rather than the whole response. Results are bit-identical to per-slot
// Predict.
func (s *Server) predictBatch(r *http.Request, tr *obs.Trace, br *batchReply) *Error {
	sp := tr.StartSpan("decode")
	model, reqs, e := br.decode(r)
	sp.End()
	if e != nil {
		return e
	}
	if len(reqs) == 0 {
		return badRequest(CodeBadRequest, "scenarios must not be empty")
	}
	if len(reqs) > maxBatch {
		return badRequest(CodeBadRequest, "batch of %d exceeds limit %d", len(reqs), maxBatch)
	}
	rm, e := s.resolveModel(model)
	if e != nil {
		return e
	}
	fsp := tr.StartSpan("fanout")
	fsp.Annotate("slots", strconv.Itoa(len(reqs)))
	br.resolve(rm, reqs)
	if rows := br.rows; len(rows) > 0 {
		esp := fsp.StartChild("eval")
		esp.Annotate("scenarios", strconv.Itoa(len(rows)))
		br.preds = slices.Grow(br.preds[:0], len(rows))[:len(rows)]
		ctx := r.Context()
		err := ctx.Err()
		if err == nil {
			err = rm.m.PredictIDsInto(rows, br.preds)
		}
		esp.End()
		if err != nil {
			br.evalErr = &errorDetail{Code: CodeTimeout, Message: "request timed out before this scenario was served"}
			if ctx.Err() == nil {
				e := asError(err)
				br.evalErr = &errorDetail{Code: e.Code, Message: e.Message}
			}
		}
	}
	fsp.End()
	return nil
}

// batchReply is a batch in the one form it keeps from decode to reply:
// the snapshot that resolved it, a row of ids and a prediction per valid
// slot, an error per failed slot, and where each slot's entry is. The
// encoder appends the reply from it directly, copying names and baselines
// from the snapshot's serving table. It is pooled with the decode's
// scratch, and released once the reply is written.
type batchReply struct {
	rm resolved
	// at[i] is slot i's index in rows and preds when at least 0, and
	// -1-k for failed[k] otherwise.
	at      []int32
	rows    []core.IDScenario
	preds   []float64
	failed  []errorDetail
	evalErr *errorDetail // set when the model call failed every valid slot
	co      []int32      // every valid slot's co-app ids, carved in order

	// The decode's scratch: the scanner's arena and the scanned rows.
	scan jsonwire.Scanner
	reqs []ScenarioRequest
}

var batchReplyPool = sync.Pool{New: func() any { return &batchReply{co: make([]int32, 0, 256)} }}

// resolve validates every slot against rm's snapshot in one pass, in
// slot order: a valid slot's row of ids joins rows, a failed slot's error
// joins failed.
func (br *batchReply) resolve(rm resolved, reqs []ScenarioRequest) {
	br.rm = rm
	total := 0
	for i := range reqs {
		total += len(reqs[i].CoApps)
	}
	// co is never nil, so neither is a row's slice of it for an empty
	// co_apps: null and [] reply differently.
	co := slices.Grow(br.co[:0], total)[:total]
	br.co = co
	br.at = slices.Grow(br.at[:0], len(reqs))
	br.rows = slices.Grow(br.rows[:0], len(reqs))
	for i := range reqs {
		sr := &reqs[i]
		k := len(sr.CoApps)
		row, e := validateScenario(rm.servedModel, sr.scenario(), co[:k:k])
		co = co[k:]
		if e != nil {
			br.at = append(br.at, int32(-1-len(br.failed)))
			br.failed = append(br.failed, errorDetail{Code: e.Code, Message: e.Message})
			continue
		}
		br.at = append(br.at, int32(len(br.rows)))
		br.rows = append(br.rows, row)
	}
}

// errors counts the failed slots.
func (br *batchReply) errors() int {
	if br.evalErr != nil {
		return len(br.failed) + len(br.rows)
	}
	return len(br.failed)
}

// maxPooledIDs bounds the co-app ids a pooled reply keeps room for:
// maxRowHint rows of four co-runners.
const maxPooledIDs = 4 * maxRowHint

// release empties the reply, dropping its references to the request and
// the snapshot, and returns it to the pool when it fits; one oversized
// batch's scratch is dropped rather than pinned.
func (br *batchReply) release() {
	clear(br.rows)
	clear(br.failed)
	clear(br.reqs)
	br.scan.Reuse("")
	br.rm, br.evalErr = resolved{}, nil
	br.at, br.rows, br.preds, br.failed, br.reqs = br.at[:0], br.rows[:0], br.preds[:0], br.failed[:0], br.reqs[:0]
	if br.fits() {
		batchReplyPool.Put(br)
	}
}

// fits reports whether br's scratch is small enough to keep in the pool.
func (br *batchReply) fits() bool {
	return cap(br.reqs) <= maxRowHint && cap(br.rows) <= maxRowHint && cap(br.co) <= maxPooledIDs
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
	spec, err := simproc.MachineByName(name)
	if err != nil {
		return simproc.Spec{}, badRequest(CodeBadRequest, "%v", err)
	}
	return spec, nil
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
	s.metrics.SwapsRecorded(len(reloaded))
	if err != nil {
		return errBody(internalError(err))
	}
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
