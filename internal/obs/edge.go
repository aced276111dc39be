package obs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"time"
)

// EdgeConfig holds the five observability knobs both HTTP tiers expose
// under the same names on their own Config. The sentinel rule is stated
// here and applied once, in NewEdge: 0 selects the default, negative
// switches the feature off.
type EdgeConfig struct {
	// Logger receives one structured line per request (request ID,
	// endpoint, method, path, status, latency). nil disables request
	// logging.
	Logger *slog.Logger
	// TraceRing bounds the retained-trace ring (entries). 0 selects the
	// default (256); negative disables tracing entirely.
	TraceRing int
	// SlowThreshold marks a request as slow: slow requests are logged at
	// Warn and their traces retained in the ring. 0 selects the default
	// (100ms); negative treats every request as slow (soaks, debugging).
	SlowThreshold time.Duration
	// SLOObjective is the good-request fraction target for the predict
	// paths (GET /v1/slo, <prefix>_slo_* gauges). 0 selects the default
	// (0.999); negative disables SLO tracking.
	SLOObjective float64
	// SLOLatencyTarget is the latency bound counted toward the objective:
	// a predict is good only if it succeeds within the target. 0 selects
	// the default (250ms); negative makes errors alone burn budget.
	SLOLatencyTarget time.Duration
}

// Edge is the request envelope of an HTTP tier, the one place a request
// gets its identity and its accounting: adopt or mint the request ID and
// echo it, open the root span under the caller's traceparent, count the
// request in flight, and on the way out finish the trace, write the log
// line, and record endpoint metrics and the predict-path SLO. Handlers
// receive the identity Begin returns as an argument; nothing is planted
// in the request context or re-read from headers.
type Edge struct {
	logger     *slog.Logger
	slow       time.Duration // 0 = everything is slow
	tracer     *Tracer       // nil when tracing is off
	slo        *SLOTracker   // nil when SLO tracking is off
	endpoints  *Endpoints
	inFlight   *Gauge
	failedFrom int
}

// NewEdge builds a tier's edge from its knobs and the metric handles the
// tier declared (so each tier keeps its own scrape order), and declares
// the <prefix>_slo_* gauges on reg. failedFrom is the lowest status the
// tier counts as a failed request in <prefix>_request_errors_total and
// retains a trace for: 400 on the node, whose clients' mistakes are its
// own; 500 on the router, which relays its backends' 4xx verbatim.
func NewEdge(cfg EdgeConfig, failedFrom int, reg *Registry, endpoints *Endpoints, inFlight *Gauge) *Edge {
	if cfg.TraceRing == 0 {
		cfg.TraceRing = 256
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = 100 * time.Millisecond
	}
	if cfg.SLOObjective == 0 {
		cfg.SLOObjective = 0.999
	}
	if cfg.SLOLatencyTarget == 0 {
		cfg.SLOLatencyTarget = 250 * time.Millisecond
	}
	e := &Edge{
		logger:     cfg.Logger,
		slow:       max(cfg.SlowThreshold, 0),
		endpoints:  endpoints,
		inFlight:   inFlight,
		failedFrom: failedFrom,
	}
	if cfg.TraceRing > 0 {
		e.tracer = NewTracer(Config{Capacity: cfg.TraceRing, SlowThreshold: e.slow})
	}
	if cfg.SLOObjective > 0 {
		e.slo = NewSLOTracker(SLOConfig{Objective: cfg.SLOObjective, LatencyTarget: max(cfg.SLOLatencyTarget, 0)})
	}
	e.slo.Register(reg, endpoints.prefix)
	return e
}

// Tracer returns the edge's span tracer (nil when tracing is off).
func (e *Edge) Tracer() *Tracer { return e.tracer }

// SLO returns the edge's predict-path SLO tracker (nil when off).
func (e *Edge) SLO() *SLOTracker { return e.slo }

// Slow reports whether a request that has taken d is at or past the
// slow threshold — the one bar for Warn lines, trace retention and
// shipping spans back to a caller.
func (e *Edge) Slow(d time.Duration) bool { return d >= e.slow }

// Route is one endpoint's handle on the edge, resolved when the mux is
// built so a request pays for no lookup.
type Route struct {
	edge     *Edge
	name     string
	endpoint *Endpoint
	slo      bool
}

// Route declares an endpoint. The SLO covers the predict paths only.
func (e *Edge) Route(name string) *Route {
	return &Route{edge: e, name: name, endpoint: e.endpoints.Endpoint(name),
		slo: name == "predict" || name == "predict_batch"}
}

// Request is one request's identity, handed to its handler by value.
type Request struct {
	// ID is the caller's X-Request-ID, or one minted on arrival.
	ID string
	// Trace is the live trace (nil when tracing is off; nil is safe).
	Trace *Trace
	// Start is the arrival time every duration is measured from.
	Start time.Time
	// Parent is the caller's traceparent; the zero value when none (or a
	// malformed one) came in, so Parent.Sampled alone says "ship spans".
	Parent TraceContext
}

// RequestIDHeader is X-Request-ID in canonical form, so it can be read
// and assigned directly: Header.Get and Set on the usual spelling would
// canonicalise (and allocate) on every request.
const RequestIDHeader = "X-Request-Id"

// Begin admits a request: stamp its arrival, count it in flight, and
// give it its identity.
func (rt *Route) Begin(w http.ResponseWriter, r *http.Request) Request {
	start := time.Now()
	rt.edge.inFlight.Add(1)
	return rt.identify(w, r, start)
}

// identify adopts the caller's request ID or mints one and echoes it (an
// adopted ID by sharing the request's own header slice, which outlives
// the reply), then opens the root span and re-parents it under the
// caller's traceparent when one came in.
func (rt *Route) identify(w http.ResponseWriter, r *http.Request, start time.Time) Request {
	rq := Request{Start: start}
	if vs := r.Header[RequestIDHeader]; len(vs) > 0 && vs[0] != "" {
		rq.ID = vs[0]
		w.Header()[RequestIDHeader] = vs[:1:1]
	} else {
		rq.ID = NewRequestID()
		w.Header()[RequestIDHeader] = []string{rq.ID}
	}
	rq.Trace = rt.edge.tracer.StartAt("http", rt.name, rq.ID, start)
	rq.Parent, _ = ParseTraceparent(r.Header.Get(TraceparentHeader))
	rq.Trace.AdoptContext(rq.Parent)
	return rq
}

// End closes a request Begin admitted. The trace must not be used after.
func (rt *Route) End(rq Request, r *http.Request, status int) {
	rt.edge.inFlight.Add(-1)
	rt.account(rq, r, status)
}

// account finishes the trace and records the request: one log line —
// Info, Warn at the slow threshold, Error on 5xx — then endpoint metrics
// and, on the predict paths, the SLO.
func (rt *Route) account(rq Request, r *http.Request, status int) {
	e := rt.edge
	d := time.Since(rq.Start)
	failed := status >= e.failedFrom
	rq.Trace.Finish(status, failed)
	if e.logger != nil {
		lvl, msg := slog.LevelInfo, "request"
		if e.Slow(d) {
			lvl, msg = slog.LevelWarn, "slow request"
		}
		if status >= 500 {
			lvl, msg = slog.LevelError, "request failed"
		}
		e.logger.LogAttrs(context.Background(), lvl, msg,
			slog.String("request_id", rq.ID),
			slog.String("endpoint", rt.name),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Float64("dur_ms", float64(d)/1e6),
		)
	}
	rt.endpoint.Observe(d, failed)
	if rt.slo {
		e.slo.Observe(d, status >= 500)
	}
}

// Scrape answers a Prometheus text-format request under the envelope:
// write renders the document. A scrape reads the in-flight gauge, so it
// is not counted in it — an idle tier scrapes 0.
func (rt *Route) Scrape(w http.ResponseWriter, r *http.Request, write func(io.Writer, *Trace)) {
	rq := rt.identify(w, r, time.Now())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	write(w, rq.Trace)
	rt.account(rq, r, http.StatusOK)
}

// ErrDisabled marks the error Traces and SLOStatus return on a tier
// running without that feature; the tier answers its typed 503.
var ErrDisabled = errors.New("disabled")

// TracesResponse is the body of GET /v1/traces: the retained slow and
// failed traces, newest first, plus the tracer's retention counters.
type TracesResponse struct {
	Stats  Stats        `json:"stats"`
	Count  int          `json:"count"`
	Traces []*TraceData `json:"traces"`
}

// Traces answers GET /v1/traces from the ring; FilterFromQuery documents
// the query parameters, and its error is fit for a typed 400.
func (e *Edge) Traces(q url.Values) (*TracesResponse, error) {
	if e.tracer == nil {
		return nil, fmt.Errorf("%w: this tier runs without the trace ring (negative TraceRing)", ErrDisabled)
	}
	f, err := FilterFromQuery(q)
	if err != nil {
		return nil, err
	}
	traces := e.tracer.Snapshot(f)
	return &TracesResponse{Stats: e.tracer.Stats(), Count: len(traces), Traces: traces}, nil
}

// SLOStatus answers GET /v1/slo: the predict-path verdict with
// per-window good/bad counts, burn rates, and an ok|warn|page state.
func (e *Edge) SLOStatus() (SLOStatus, error) {
	if e.slo == nil {
		return SLOStatus{}, fmt.Errorf("%w: this tier runs without SLO tracking (negative SLOObjective)", ErrDisabled)
	}
	return e.slo.Status(), nil
}
