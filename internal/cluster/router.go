package cluster

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"colocmodel/internal/fleetobs"
	"colocmodel/internal/obs"
	"colocmodel/internal/serve"
)

// Config tunes the router.
type Config struct {
	// Replicas bounds the backends a predict or an observation may try,
	// least loaded first: its failover breadth. Batches and
	// placements may try every admissible backend. Default 2.
	Replicas int
	// ProbeInterval paces the health/generation probe loop. Default 2s.
	ProbeInterval time.Duration
	// EjectAfter is the consecutive probe failures before a backend is
	// ejected from routing. Default 3.
	EjectAfter int
	// RequestTimeout bounds one inbound request end to end. Default 10s.
	RequestTimeout time.Duration
	// Client reaches the backends; nil selects a pooled transport. Its
	// Transport (nil: http.DefaultTransport) carries every forwarded
	// call — predict, batch, observations, placements, reload, models —
	// through RoundTrip, so its Timeout, CheckRedirect and Jar do not
	// apply to them: RequestTimeout bounds a forwarded call, and a
	// backend's redirect is replayed as it came. Health probes and fleet
	// metrics scrapes go through Client.Do.
	Client *http.Client
	// The five observability knobs, passed to the request edge as an
	// obs.EdgeConfig, which documents them and owns their defaults
	// (0 = default, negative = off).
	Logger           *slog.Logger
	TraceRing        int
	SlowThreshold    time.Duration
	SLOObjective     float64
	SLOLatencyTarget time.Duration
}

func (c *Config) defaults() {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.Client == nil {
		tr := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 128}
		c.Client = &http.Client{Transport: tr}
	}
}

// Router is the scale-out gateway: it forwards every call, with the
// caller's bytes, to the least-loaded admissible backend of a replicated
// coloserve fleet, fails over past a replica that cannot answer, and
// coordinates rolling model promotions with per-client generation
// monotonicity.
type Router struct {
	cfg       Config
	transport http.RoundTripper // cfg.Client's, which every forwarded call goes through
	pool      *Pool
	metrics   *Metrics
	floors    floorTable
	edge      *obs.Edge // the request envelope every endpoint runs under
	fleet     *fleetobs.Aggregator
	started   time.Time

	promoteMu sync.Mutex // serializes rolling promotions

	routesOnce sync.Once
	routes     *obs.Routes
}

// New builds a router. Join backends with Pool().Add, then (optionally)
// Start the probe loop.
func New(cfg Config) *Router {
	cfg.defaults()
	pool := newPool(cfg)
	transport := cfg.Client.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	rt := &Router{
		cfg:       cfg,
		transport: transport,
		pool:      pool,
		metrics:   NewMetrics(pool),
		fleet:     &fleetobs.Aggregator{Client: cfg.Client},
		started:   time.Now(),
	}
	rt.edge = obs.NewEdge(obs.EdgeConfig{Logger: cfg.Logger, TraceRing: cfg.TraceRing, SlowThreshold: cfg.SlowThreshold,
		SLOObjective: cfg.SLOObjective, SLOLatencyTarget: cfg.SLOLatencyTarget},
		http.StatusInternalServerError, rt.metrics.reg, rt.metrics.endpoints, rt.metrics.inFlight)
	return rt
}

// Pool returns the router's backend pool.
func (rt *Router) Pool() *Pool { return rt.pool }

// Metrics returns the router's metrics layer.
func (rt *Router) Metrics() *Metrics { return rt.metrics }

// Start probes every backend once (so routing starts with fresh health
// and generation data) and launches the periodic probe loop.
func (rt *Router) Start(ctx context.Context) {
	rt.pool.ProbeAll(ctx)
	rt.pool.Start(ctx, rt.cfg.ProbeInterval)
}

// floorTable tracks, per (client, model), the highest serving
// generation the client has observed. Routing never sends a client to a
// backend below its floor, so a rolling promotion exposes no
// mixed-generation window to any single client. Clients identify
// themselves with the X-Client-ID header; anonymous requests share one
// conservative floor.
type floorTable struct {
	mu sync.Mutex
	m  map[string]uint64
}

func floorKey(client, model string) string { return client + "\x00" + model }

func (f *floorTable) get(client, model string) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.m[floorKey(client, model)]
}

func (f *floorTable) raise(client, model string, gen uint64) {
	if gen == 0 {
		return
	}
	f.mu.Lock()
	if f.m == nil {
		f.m = make(map[string]uint64)
	}
	k := floorKey(client, model)
	if gen > f.m[k] {
		f.m[k] = gen
	}
	f.mu.Unlock()
}

// ---- HTTP plumbing ----

// handlerFunc answers one request, whose identity (request ID, trace)
// it receives as rq, with a JSON body for wrap to write; a nil body
// means the handler wrote its own response (placements streams, replay
// writes a backend's bytes as they came).
type handlerFunc func(w http.ResponseWriter, r *http.Request, rq obs.Request) (int, any)

type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Stable router error codes (the serve tier's codes pass through
// verbatim on proxied responses).
const (
	CodeBadRequest = "bad_request"
	// CodeBodyTooLarge marks a request body over the router's bound for
	// its endpoint, as serve marks one over its own.
	CodeBodyTooLarge = "body_too_large"
	// CodeNoBackend marks requests that found no admissible backend
	// (none healthy, or none at the client's generation floor).
	CodeNoBackend = "no_backend"
	// CodeBackendUnavailable marks requests whose every candidate
	// backend failed.
	CodeBackendUnavailable = "backend_unavailable"
	// CodeTracingDisabled marks calls to /v1/traces on a router started
	// with the trace ring disabled.
	CodeTracingDisabled = "tracing_disabled"
	// CodeSLODisabled marks calls to /v1/slo on a router started with
	// SLO tracking disabled.
	CodeSLODisabled = "slo_disabled"
)

func errJSON(status int, code, format string, args ...any) (int, any) {
	return status, errorBody{Error: errorDetail{Code: code, Message: fmt.Sprintf(format, args...)}}
}

// retryableUnavailable is the router's own typed 503: transient (a
// drain in progress, or a promotion window where no backend satisfies
// the caller's generation floor yet), so it carries Retry-After — the
// same contract the serve tier's drain shed gives the router.
func (rt *Router) retryableUnavailable(w http.ResponseWriter, format string, args ...any) (int, any) {
	w.Header().Set("Retry-After", "1")
	return errJSON(http.StatusServiceUnavailable, CodeNoBackend, format, args...)
}

// Handler returns the router's routing table (obs.Routes, built once).
func (rt *Router) Handler() http.Handler {
	rt.routesOnce.Do(func() {
		rs := obs.NewRoutes()
		rs.Handle("POST", "/v1/predict", rt.wrap("predict", rt.handlePredict))
		rs.Handle("POST", "/v1/predict/batch", rt.wrap("predict_batch", rt.handlePredictBatch))
		rs.Handle("POST", "/v1/placements", rt.wrap("placements", rt.handlePlacements))
		rs.Handle("POST", "/v1/observations", rt.wrap("observations", rt.handleObservations))
		rs.Handle("POST", "/v1/models/reload", rt.wrap("reload", rt.handleReload))
		rs.Handle("GET", "/v1/models", rt.wrap("models", rt.handleModels))
		rs.Handle("GET", "/v1/cluster", rt.wrap("cluster", rt.handleCluster))
		rs.Handle("GET", "/v1/traces", rt.wrap("traces", rt.handleTraces))
		rs.Handle("GET", "/v1/slo", rt.wrap("slo", rt.handleSLO))
		fleetScrapes := rt.edge.Route("fleet_metrics")
		rs.Handle("GET", "/v1/fleet/metrics", func(w http.ResponseWriter, r *http.Request) {
			fleetScrapes.Scrape(w, r, func(out io.Writer, tr *obs.Trace) { rt.writeFleetMetrics(r.Context(), out, tr) })
		})
		rs.Handle("GET", "/healthz", rt.wrap("healthz", rt.handleHealthz))
		scrapes := rt.edge.Route("metrics")
		rs.Handle("GET", "/metrics", func(w http.ResponseWriter, r *http.Request) {
			scrapes.Scrape(w, r, func(out io.Writer, _ *obs.Trace) { rt.metrics.reg.Write(out) })
		})
		rt.routes = rs
	})
	return rt.routes
}

// wrap runs a handler under the request edge (obs.Edge: request ID,
// root span under the caller's traceparent, in-flight, log line, metrics,
// SLO) and adds what is the router's own: the end-to-end request
// timeout. A handler that panics is accounted as the 500 it amounts to.
func (rt *Router) wrap(endpoint string, h handlerFunc) http.HandlerFunc {
	route := rt.edge.Route(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		rq := route.Begin(w, r)
		status := http.StatusInternalServerError
		defer func() { route.End(rq, r, status) }()
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
		defer cancel()
		var body any
		if status, body = h(w, r.WithContext(ctx), rq); body != nil {
			writeJSON(w, status, body)
		}
	}
}

// jsonContentType is shared by every reply and backend call the router
// renders itself: assigned under the already-canonical key, it costs no
// canonicalisation and no one-element slice.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// clientID identifies the requester for generation-floor tracking.
func clientID(r *http.Request) string { return r.Header.Get("X-Client-ID") }

// ---- proxying ----

// proxyResult is one backend call's outcome.
type proxyResult struct {
	backend      *Backend
	status       int
	body         []byte
	contentType  []string // backend's Content-Type values, as sent
	serverTiming string
	traceSpans   string // backend's X-Trace-Spans payload, verbatim
	shed         bool   // typed 503 "draining": alive, re-route, don't eject
	err          error
	elapsed      time.Duration
}

// ok reports whether the result can be returned to a client: any
// definitive response that is not a drain shed. 4xx is definitive (all
// replicas would reject identically); 5xx and transport errors are not.
func (pr *proxyResult) ok() bool {
	return pr.err == nil && !pr.shed && pr.status < 500
}

// outboundTraceparent renders the W3C trace context to inject into one
// backend call: a fresh child of the request's router trace. Empty when
// tracing is disabled or the request carries no trace.
func outboundTraceparent(tr *obs.Trace) string {
	if tc, ok := tr.OutboundContext(); ok {
		return tc.Header()
	}
	return ""
}

// retryAfter reads a response's Retry-After delay in whole seconds: 0
// when the header is absent, 1s when it is unparsable or below 1.
func retryAfter(h http.Header) time.Duration {
	ra := h.Get("Retry-After")
	if ra == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(ra))
	if err != nil || secs < 1 {
		secs = 1
	}
	return time.Duration(secs) * time.Second
}

// send is the one backend-call path. It builds the outbound request —
// the one http.NewRequestWithContext would build from Base+path, put
// together from what the backend resolved when it joined, so a call
// parses and canonicalises nothing — forwarding the request ID and
// trace context, holds the backend's in-flight count across the whole
// exchange, classifies the reply and records the attempt in the
// backend's metrics exactly once. A typed
// drain shed (503 + Retry-After) marks the backend shedding for the
// advertised delay rather than failed: alive but refusing, so callers
// re-route without ejecting and the probe loop re-admits it when the
// drain ends. consume sees every reply (sheds and 5xx included, with
// pr already classified) while the body is open, and its error fails
// the call. tp is the pre-rendered Traceparent value ("" injects
// none), rendered once for all of a request's attempts.
func (rt *Router) send(ctx context.Context, b *Backend, method, path string, body []byte, reqID, tp string,
	consume func(*proxyResult, *http.Response) error) *proxyResult {
	start := time.Now()
	b.acquire()
	defer b.release()
	pr := &proxyResult{backend: b}
	u := *b.url
	u.Path += path
	if u.RawPath != "" {
		u.RawPath += path
	}
	ids := []string{reqID, tp}
	req := &http.Request{Method: method, URL: &u, Host: u.Host, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": jsonContentType, obs.RequestIDHeader: ids[:1:1]}}
	if tp != "" {
		req.Header[obs.TraceparentHeader] = ids[1:]
	}
	if b.auth != nil {
		req.Header["Authorization"] = b.auth
	}
	if len(body) > 0 {
		// A NopCloser over a bytes.Reader is a body net/http knows to be
		// in memory, so headers and body leave in one write.
		req.ContentLength = int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		req.Body, _ = req.GetBody()
	}
	resp, err := rt.roundTrip(req.WithContext(ctx))
	if err == nil {
		pr.status = resp.StatusCode
		pr.contentType = resp.Header["Content-Type"]
		pr.serverTiming = resp.Header.Get("Server-Timing")
		pr.traceSpans = resp.Header.Get(obs.TraceSpansHeader)
		if resp.StatusCode == http.StatusServiceUnavailable {
			if d := retryAfter(resp.Header); d > 0 {
				pr.shed = true
				b.markShedding(d)
				b.metrics.sheds.Inc()
			}
		}
		err = consume(pr, resp)
		resp.Body.Close()
	}
	pr.err = err
	pr.elapsed = time.Since(start)
	// An attempt the caller cancelled is no fault of the backend's; one
	// the request timeout cut short is: it did not answer in time.
	cancelled := err != nil && errors.Is(ctx.Err(), context.Canceled)
	b.metrics.request(!cancelled && (err != nil || (pr.status >= 500 && !pr.shed)))
	return pr
}

// roundTrip makes one exchange on the transport, as Client.Do makes it
// for a client with no timeout, no jar and a request with nothing to
// redirect: a transport error comes back wrapped in the *url.Error
// Client.Do returns, password masked, so its text is Client.Do's.
func (rt *Router) roundTrip(req *http.Request) (*http.Response, error) {
	resp, err := rt.transport.RoundTrip(req)
	if err == nil {
		return resp, nil
	}
	if tlsErr, ok := err.(tls.RecordHeaderError); ok && string(tlsErr.RecordHeader[:]) == "HTTP/" {
		err = http.ErrSchemeMismatch
	}
	target := req.URL.String()
	if _, ok := req.URL.User.Password(); ok {
		target = strings.Replace(target, req.URL.User.String()+"@", req.URL.User.Username()+":***@", 1)
	}
	return nil, &url.Error{Op: req.Method[:1] + strings.ToLower(req.Method[1:]), URL: target, Err: err}
}

// proxy is send with the reply body read into memory (bounded).
func (rt *Router) proxy(ctx context.Context, b *Backend, method, path string, body []byte, reqID, tp string) *proxyResult {
	return rt.send(ctx, b, method, path, body, reqID, tp, readBody)
}

// readBody reads a backend reply whole; a reply over the bound fails the
// attempt rather than being replayed truncated.
func readBody(pr *proxyResult, resp *http.Response) (err error) {
	if pr.body, err = readSized(resp.Body, resp.ContentLength, 64<<20); err != nil {
		var tooLarge bodyTooLargeError
		if errors.As(err, &tooLarge) {
			err = fmt.Errorf("reply %w", err)
		}
	}
	return err
}

// bodyTooLargeError is readSized's refusal of a body over its limit,
// which it holds.
type bodyTooLargeError int64

func (e bodyTooLargeError) Error() string {
	return "body exceeds " + strconv.FormatInt(int64(e), 10) + " bytes"
}

// readRequestBody reads a request body of at most limit bytes, or
// returns the reply that refuses it: for a body over the limit the typed
// 413 serve answers it with, for a failed read a 400.
func readRequestBody(r *http.Request, limit int64) (raw []byte, status int, refusal any) {
	raw, err := readSized(r.Body, r.ContentLength, limit)
	if err == nil {
		return raw, 0, nil
	}
	var tooLarge bodyTooLargeError
	if errors.As(err, &tooLarge) {
		status, refusal = errJSON(http.StatusRequestEntityTooLarge, CodeBodyTooLarge, "request %v", err)
	} else {
		status, refusal = errJSON(http.StatusBadRequest, CodeBadRequest, "reading request body: %v", err)
	}
	return nil, status, refusal
}

// presizeMax caps the buffer readSized allocates on a declared length
// alone: a length is a claim, not bytes, and a client that declares a
// 64 MiB batch and sends nothing must not pin 64 MiB.
const presizeMax = 64 << 10

// readSized reads a body of at most limit bytes: it returns what
// io.ReadAll(io.LimitReader(r, limit+1)) returns, except that a body that
// declares or holds more than limit bytes is refused with a
// bodyTooLargeError, never judged on a truncated prefix. A declared
// length over the limit is refused before anything is read. When the
// sender declared a length within presizeMax, it is read into one buffer
// of that length; otherwise, and for whatever a body holds beyond its
// declared length, it falls back to that bounded ReadAll.
func readSized(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared > limit {
		return nil, bodyTooLargeError(limit)
	}
	var buf []byte
	var err error
	if declared < 0 || declared > presizeMax {
		buf, err = io.ReadAll(io.LimitReader(r, limit+1))
	} else {
		buf = make([]byte, declared)
		n := 0
		for n < len(buf) && err == nil {
			var k int
			k, err = r.Read(buf[n:])
			n += k
		}
		buf = buf[:n]
		if err == nil {
			// Full with no EOF seen: read on as ReadAll would, one byte
			// past the limit. net/http's bodies report EOF with their
			// last bytes and never get here.
			var rest []byte
			rest, err = io.ReadAll(io.LimitReader(r, limit+1-int64(n)))
			buf = append(buf, rest...)
		} else if err == io.EOF {
			err = nil
		}
	}
	if int64(len(buf)) > limit {
		return nil, bodyTooLargeError(limit)
	}
	return buf, err
}

// failover makes one forwarded call against the candidates in order,
// moving on only while retry holds for the previous reply and the
// request's context is not done: notOK for idempotent reads (and for
// placements, which forwards nothing of a reply that is not ok),
// shedOnly for ingest. consume is send's: readBody for a reply that is
// replayed whole. The first attempt is timed as a "proxy" child of the
// request's root span and later ones as "retry"; endAttempt closes
// each.
func (rt *Router) failover(r *http.Request, rq obs.Request, cands []*Backend, retry func(*proxyResult) bool,
	method, path string, body []byte, consume func(*proxyResult, *http.Response) error) *proxyResult {
	ctx, tp := r.Context(), outboundTraceparent(rq.Trace)
	var pr *proxyResult
	name := "proxy"
	for _, b := range cands {
		sp := rq.Trace.Root().StartChild(name)
		sp.Annotate("backend", b.Name)
		pr = rt.send(ctx, b, method, path, body, rq.ID, tp, consume)
		endAttempt(sp, pr)
		if ctx.Err() != nil || !retry(pr) {
			break
		}
		name = "retry"
	}
	return pr
}

// notOK retries anything short of a definitive answer.
func notOK(pr *proxyResult) bool { return !pr.ok() }

// shedOnly retries only a drain shed, the one failure that says the
// request was definitely not processed.
func shedOnly(pr *proxyResult) bool { return pr.shed }

// endAttempt closes one attempt's span: a usable reply's carries its
// backend's own span tree, any other says why the attempt failed.
func endAttempt(sp obs.Span, pr *proxyResult) {
	switch {
	case pr.ok():
		sp.AttachRemote(pr.backend.Name, pr.traceSpans)
	case pr.err != nil:
		sp.Fail(pr.err.Error())
	case pr.shed:
		sp.Annotate("outcome", "shed")
	default:
		sp.Annotate("outcome", "status "+strconv.Itoa(pr.status))
	}
	sp.End()
}

// candidates returns the backends a forwarded call may go to: the
// available ones serving model at or above the client's generation
// floor, least in-flight first, ties broken by name, and at most limit
// of them when limit > 0. No backend keeps anything keyed by scenario,
// so any of them serves any request as well as another, and load is the
// one signal worth routing on.
func (rt *Router) candidates(model string, floor uint64, limit int) []*Backend {
	members := rt.pool.members()
	cands := make([]*Backend, 0, len(members))
	for _, b := range members {
		if !b.Available() || (floor > 0 && b.Gen(model) < floor) {
			continue
		}
		// Members come in name order, so an insertion that moves only
		// past busier backends breaks ties by name.
		load, i := b.Inflight(), len(cands)
		for i > 0 && cands[i-1].Inflight() > load {
			i--
		}
		cands = slices.Insert(cands, i, b)
	}
	if limit > 0 && len(cands) > limit {
		cands = cands[:limit]
	}
	return cands
}

// routed resolves a request's candidates under its "route" span and
// reports how long that took: the route Server-Timing stage, which
// covers candidate resolution only, never a backend attempt.
func routed(tr *obs.Trace, pick func() []*Backend) ([]*Backend, time.Duration) {
	start := time.Now()
	sp := tr.StartSpan("route")
	cands := pick()
	sp.End()
	return cands, time.Since(start)
}

// ---- predict ----

// decodePredict reads a predict body for its model name with the scan
// the serving backend will run on the same bytes; whatever that scan
// declines is encoding/json's, so acceptance, decoded values and every
// 400 are the stdlib's.
func decodePredict(raw []byte) (req serve.PredictRequest, err error) {
	if !serve.ScanPredictRequest(raw, &req) {
		req = serve.PredictRequest{}
		err = json.Unmarshal(raw, &req)
	}
	return req, err
}

// predictIdentity is the slice of a predict response the router needs:
// the resolved model and the serving generation.
type predictIdentity struct {
	Model      string `json:"model"`
	Generation uint64 `json:"generation"`
}

// predictReplyIdentity reads who served a predict reply. Model and
// generation lead the reply as serve renders it; any other bytes are
// encoding/json's to read.
func predictReplyIdentity(body []byte) (string, uint64) {
	model, gen, ok := serve.PredictReplyIdentity(body)
	if !ok {
		var id predictIdentity
		if json.Unmarshal(body, &id) == nil {
			model, gen = id.Model, id.Generation
		}
	}
	return model, gen
}

func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request, rq obs.Request) (int, any) {
	raw, status, refusal := readRequestBody(r, 1<<20)
	if refusal != nil {
		return status, refusal
	}
	req, err := decodePredict(raw)
	if err != nil {
		return errJSON(http.StatusBadRequest, CodeBadRequest, "decoding request body: %v", err)
	}
	client := clientID(r)
	floor := rt.floors.get(client, req.Model)
	cands, route := routed(rq.Trace, func() []*Backend { return rt.candidates(req.Model, floor, rt.cfg.Replicas) })
	if len(cands) == 0 {
		return rt.retryableUnavailable(w, "no admissible backend (healthy at generation >= %d)", floor)
	}
	pr := rt.failover(r, rq, cands, notOK, http.MethodPost, "/v1/predict", raw, readBody)
	return rt.answer(w, pr, route, client, req.Model, predictReplyIdentity)
}

// answer finishes a forwarded call once its backend call is back: a
// transport failure is the typed 502, a round of sheds the retryable
// 503, and any reply is replayed as it came. identity, when the reply
// serves a model (predict and batch), reads the resolved model and
// serving generation off a 2xx body.
func (rt *Router) answer(w http.ResponseWriter, pr *proxyResult, route time.Duration, client, model string,
	identity func(body []byte) (string, uint64)) (int, any) {
	if pr.err != nil {
		return errJSON(http.StatusBadGateway, CodeBackendUnavailable, "all candidates failed: %v", pr.err)
	}
	if pr.shed {
		return rt.retryableUnavailable(w, "all admissible candidates are draining")
	}
	if identity != nil && pr.status < 300 {
		if served, gen := identity(pr.body); gen > 0 {
			// Note the backend's generation BEFORE raising the shared
			// floor: a concurrent request that reads the raised floor
			// must already find at least one backend admissible at it,
			// or it answers a spurious retryable no_backend.
			pr.backend.noteServed(served, gen)
			rt.floors.raise(client, model, gen)
		}
	}
	return rt.replay(w, pr, route)
}

// noteServed folds a generation the backend just served into its pool
// record and its colorouter_backend_generation gauge.
func (b *Backend) noteServed(model string, gen uint64) {
	b.NoteGeneration(model, gen)
	b.metrics.generation.SetMax(int64(b.Gen("")))
}

// replay answers the client with a proxied result as it came — status,
// body bytes and the backend's Content-Type — under the hop's
// Server-Timing: route (candidate resolution), backend, then the
// backend's own stage breakdown.
func (rt *Router) replay(w http.ResponseWriter, pr *proxyResult, route time.Duration) (int, any) {
	var arr [192]byte
	b := obs.AppendServerTiming(arr[:0], "route", route)
	b = obs.AppendServerTiming(b, "backend", pr.elapsed)
	if backend := strings.TrimSpace(pr.serverTiming); backend != "" {
		b = append(append(b, ", "...), backend...)
	}
	h := w.Header()
	h["Server-Timing"] = []string{string(b)}
	h["X-Backend"] = pr.backend.nameHdr
	if len(pr.contentType) > 0 {
		h["Content-Type"] = pr.contentType
	}
	w.WriteHeader(pr.status)
	_, _ = w.Write(pr.body)
	return pr.status, nil
}

// ---- batch predict ----

// batchReplyIdentity reads who served a batch reply, in one pass: the
// resolved model and the highest generation any row was served at.
func batchReplyIdentity(body []byte) (string, uint64) {
	var reply struct {
		Model   string `json:"model"`
		Results []struct {
			Result *predictIdentity `json:"result"`
		} `json:"results"`
	}
	var gen uint64
	if json.Unmarshal(body, &reply) != nil {
		return "", 0
	}
	for _, row := range reply.Results {
		if row.Result != nil && row.Result.Generation > gen {
			gen = row.Result.Generation
		}
	}
	return reply.Model, gen
}

// handlePredictBatch forwards a batch whole, with the caller's bytes, to
// the least-loaded backend at the client's generation floor, and replays
// the reply as it came. Backends evaluate a batch in one kernel call and
// keep no per-scenario state for it, so no backend is a better home for
// a row than another; the router reads only the model the floor is
// tracked under, and every other check is the serving backend's.
func (rt *Router) handlePredictBatch(w http.ResponseWriter, r *http.Request, rq obs.Request) (int, any) {
	raw, status, refusal := readRequestBody(r, 64<<20)
	if refusal != nil {
		return status, refusal
	}
	var req struct {
		Model string `json:"model"`
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		return errJSON(http.StatusBadRequest, CodeBadRequest, "decoding request body: %v", err)
	}
	client := clientID(r)
	floor := rt.floors.get(client, req.Model)
	cands, route := routed(rq.Trace, func() []*Backend { return rt.candidates(req.Model, floor, 0) })
	if len(cands) == 0 {
		return rt.retryableUnavailable(w, "no admissible backend (healthy at generation >= %d)", floor)
	}
	pr := rt.failover(r, rq, cands, notOK, http.MethodPost, "/v1/predict/batch", raw, readBody)
	return rt.answer(w, pr, route, client, req.Model, batchReplyIdentity)
}

// ---- observations ----

// handleObservations forwards observation ingest whole: one observation
// or a batch, the caller's bytes go to one backend, which folds them
// into one group commit and whose limits and typed 400s reach the client
// as they came. Ingest is an append, not an idempotent read: it fails
// over only on a drain shed (definitely not processed).
func (rt *Router) handleObservations(w http.ResponseWriter, r *http.Request, rq obs.Request) (int, any) {
	raw, status, refusal := readRequestBody(r, 64<<20)
	if refusal != nil {
		return status, refusal
	}
	cands, route := routed(rq.Trace, func() []*Backend { return rt.candidates("", 0, rt.cfg.Replicas) })
	if len(cands) == 0 {
		return rt.retryableUnavailable(w, "no admissible backend")
	}
	pr := rt.failover(r, rq, cands, shedOnly, http.MethodPost, "/v1/observations", raw, readBody)
	return rt.answer(w, pr, route, "", "", nil)
}

// ---- rolling promotion ----

// RolloutBackend reports one backend's slice of a rolling promotion.
type RolloutBackend struct {
	Backend  string   `json:"backend"`
	Reloaded []string `json:"reloaded,omitempty"`
	// Generation is the backend's default-model serving generation
	// after its reload.
	Generation uint64 `json:"generation"`
	Error      string `json:"error,omitempty"`
}

// RolloutResponse reports a coordinated rolling promotion.
type RolloutResponse struct {
	// Completed is true when every admissible backend reloaded.
	Completed bool             `json:"completed"`
	Backends  []RolloutBackend `json:"backends"`
}

// handleReload rolls a model promotion across the fleet one backend at
// a time: POST /v1/models/reload on each, then refresh its generation
// record before moving on. Mid-rollout the fleet serves mixed
// generations, but the per-client floor keeps every individual client
// on a monotone generation sequence; after the last backend reloads the
// fleet converges. Ejected backends are skipped (the probe loop
// refreshes their generation on re-admission).
//
// Backend generations are per-process swap counters, so a replica that
// restarted since the last rollout sits below the rest of the fleet and
// a single reload each leaves it permanently one behind — floor-holding
// clients would never be routed to it again. After the rolling pass the
// handler therefore issues catch-up reloads to any backend still below
// the fleet maximum until the counters align (each extra reload re-reads
// the same artefacts, so catch-ups are harmless no-op swaps).
func (rt *Router) handleReload(_ http.ResponseWriter, r *http.Request, rq obs.Request) (int, any) {
	rt.promoteMu.Lock()
	defer rt.promoteMu.Unlock()
	resp := RolloutResponse{Completed: true}
	reload := func(b *Backend, rb *RolloutBackend) bool {
		pr := rt.proxy(r.Context(), b, http.MethodPost, "/v1/models/reload", nil, rq.ID, outboundTraceparent(rq.Trace))
		switch {
		case pr.err != nil:
			rb.Error = pr.err.Error()
			return false
		case pr.status != http.StatusOK:
			rb.Error = fmt.Sprintf("reload returned %d: %s", pr.status, truncate(pr.body, 200))
			return false
		default:
			var rr serve.ReloadResponse
			if json.Unmarshal(pr.body, &rr) == nil && rb.Reloaded == nil {
				rb.Reloaded = rr.Reloaded
			}
			rt.pool.RefreshGeneration(r.Context(), b)
			return true
		}
	}

	rolled := make(map[string]*RolloutBackend)
	var order []*Backend
	for _, b := range rt.pool.members() {
		if b.State() == StateEjected {
			continue
		}
		rb := &RolloutBackend{Backend: b.Name}
		if !reload(b, rb) {
			resp.Completed = false
		}
		rolled[b.Name] = rb
		order = append(order, b)
	}

	// Catch-up: align stragglers (restarted replicas) with the fleet's
	// highest counter. Bounded per backend so a backend that stops
	// advancing (reload succeeds but the counter stays put) cannot spin
	// the rollout forever.
	const maxCatchUp = 64
	var target uint64
	for _, b := range order {
		if g := b.Gen(""); g > target {
			target = g
		}
	}
	for _, b := range order {
		rb := rolled[b.Name]
		if rb.Error != "" {
			continue
		}
		for i := 0; i < maxCatchUp && b.Gen("") < target; i++ {
			prev := b.Gen("")
			if !reload(b, rb) {
				resp.Completed = false
				break
			}
			if b.Gen("") <= prev {
				rb.Error = fmt.Sprintf("catch-up reload did not advance the generation past %d", prev)
				resp.Completed = false
				break
			}
		}
		if rb.Error == "" && b.Gen("") < target {
			rb.Error = fmt.Sprintf("still at generation %d after %d catch-up reloads (fleet at %d)", b.Gen(""), maxCatchUp, target)
			resp.Completed = false
		}
	}

	for _, b := range order {
		rb := rolled[b.Name]
		rb.Generation = b.Gen("")
		resp.Backends = append(resp.Backends, *rb)
	}
	return http.StatusOK, resp
}

func truncate(b []byte, n int) string {
	s := strings.TrimSpace(string(b))
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

// ---- models / cluster / health / metrics ----

// handleModels proxies the registry listing from the most-promoted
// available backend, so discovery (clients, soak tests) sees the newest
// generation the fleet serves; like every idempotent read it fails over,
// in generation order, past anything short of a definitive answer.
func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request, rq obs.Request) (int, any) {
	avail, route := routed(rq.Trace, func() []*Backend {
		avail := rt.pool.Available()
		sort.SliceStable(avail, func(i, j int) bool { return avail[i].Gen("") > avail[j].Gen("") })
		return avail
	})
	if len(avail) == 0 {
		return rt.retryableUnavailable(w, "no healthy backend")
	}
	pr := rt.failover(r, rq, avail, notOK, http.MethodGet, "/v1/models", nil, readBody)
	return rt.answer(w, pr, route, "", "", nil)
}

// BackendInfo describes one pool entry for GET /v1/cluster.
type BackendInfo struct {
	Name        string            `json:"name"`
	Base        string            `json:"base"`
	State       string            `json:"state"`
	Inflight    int64             `json:"inflight"`
	Generations map[string]uint64 `json:"generations,omitempty"`
}

// ClusterResponse is the body of GET /v1/cluster: membership, health
// and promotion state of the fleet.
type ClusterResponse struct {
	Replicas int           `json:"replicas"`
	Backends []BackendInfo `json:"backends"`
}

func (rt *Router) handleCluster(http.ResponseWriter, *http.Request, obs.Request) (int, any) {
	resp := ClusterResponse{Replicas: rt.cfg.Replicas}
	for _, b := range rt.pool.members() {
		resp.Backends = append(resp.Backends, BackendInfo{
			Name: b.Name, Base: b.Base, State: b.State().String(),
			Inflight: b.Inflight(), Generations: b.Generations(),
		})
	}
	return http.StatusOK, resp
}

// HealthResponse is the router's liveness body.
type HealthResponse struct {
	Status        string  `json:"status"`
	Backends      int     `json:"backends"`
	Healthy       int     `json:"healthy"`
	Shedding      int     `json:"shedding"`
	Ejected       int     `json:"ejected"`
	Replicas      int     `json:"replicas"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (rt *Router) handleHealthz(http.ResponseWriter, *http.Request, obs.Request) (int, any) {
	resp := HealthResponse{Status: "ok", Replicas: rt.cfg.Replicas, UptimeSeconds: time.Since(rt.started).Seconds()}
	for _, b := range rt.pool.members() {
		resp.Backends++
		switch b.State() {
		case StateHealthy:
			resp.Healthy++
		case StateShedding:
			resp.Shedding++
		case StateEjected:
			resp.Ejected++
		}
	}
	if resp.Healthy == 0 {
		resp.Status = "no healthy backends"
		return http.StatusServiceUnavailable, resp
	}
	return http.StatusOK, resp
}

// ---- traces / SLO / fleet metrics ----

// handleTraces serves the router's trace ring: stitched cross-process
// trees whose proxy spans carry the winning backend's own span tree
// (decode → eval → encode) under the router's trace ID.
func (rt *Router) handleTraces(_ http.ResponseWriter, r *http.Request, _ obs.Request) (int, any) {
	resp, err := rt.edge.Traces(r.URL.Query())
	if err != nil {
		return edgeRefusal(err, CodeTracingDisabled)
	}
	return http.StatusOK, resp
}

// handleSLO serves the router's predict-path SLO verdict.
func (rt *Router) handleSLO(http.ResponseWriter, *http.Request, obs.Request) (int, any) {
	st, err := rt.edge.SLOStatus()
	if err != nil {
		return edgeRefusal(err, CodeSLODisabled)
	}
	return http.StatusOK, st
}

// edgeRefusal types what the edge declines to answer: a feature this
// router runs without is a 503 under the feature's own code, anything
// else a bad query.
func edgeRefusal(err error, offCode string) (int, any) {
	if errors.Is(err, obs.ErrDisabled) {
		return errJSON(http.StatusServiceUnavailable, offCode, "%v", err)
	}
	return errJSON(http.StatusBadRequest, CodeBadRequest, "%v", err)
}

// writeFleetMetrics renders one Prometheus text document describing the
// whole fleet: every non-ejected backend's /metrics scrape merged
// (counters and histograms summed, gauges re-labelled per backend),
// per-backend liveness and error-rate gauges, and the router's own
// metrics and SLO gauges.
func (rt *Router) writeFleetMetrics(ctx context.Context, w io.Writer, tr *obs.Trace) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.RequestTimeout)
	defer cancel()

	backends := rt.pool.members()
	targets := make([]fleetobs.Target, 0, len(backends))
	for _, b := range backends {
		if b.State() == StateEjected {
			continue
		}
		targets = append(targets, fleetobs.Target{Name: b.Name, MetricsURL: b.Base + "/metrics"})
	}
	ssp := tr.StartSpan("scrape")
	fs := rt.fleet.Scrape(ctx, targets)
	ssp.End()

	if fs.Merged != nil {
		fs.Merged.Write(w)
	}
	var fw obs.Writer
	for _, row := range []struct {
		name, help string
		val        func(bs *fleetobs.BackendScrape) float64
	}{
		{"colorouter_fleet_backend_up", "Whether the last fleet scrape of this backend succeeded.",
			func(bs *fleetobs.BackendScrape) float64 {
				if bs.Err == nil {
					return 1
				}
				return 0
			}},
		{"colorouter_fleet_backend_error_rate", "Error fraction of each backend's requests since the previous fleet scrape.",
			func(bs *fleetobs.BackendScrape) float64 { return bs.ErrorRate }},
	} {
		for i := range fs.Backends {
			bs := &fs.Backends[i]
			fw.Gauge(row.name, row.help, row.val(bs), obs.Label{Key: "backend", Value: bs.Name})
		}
	}
	fw.Flush(w)
	rt.metrics.reg.Write(w)
}

// ListenAndServe runs the router on addr until ctx is cancelled, then
// drains in-flight requests for up to drain.
func (rt *Router) ListenAndServe(ctx context.Context, addr string, drain time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serve.ServeGracefully(ctx, ln, rt.Handler(), drain, nil)
}
