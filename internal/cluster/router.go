package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"colocmodel/internal/features"
	"colocmodel/internal/fleetobs"
	"colocmodel/internal/obs"
	"colocmodel/internal/serve"
)

// Config tunes the router.
type Config struct {
	// Replicas is the replica-set size R: each scenario key maps to R
	// distinct backends on the ring (owner first). Default 2.
	Replicas int
	// VirtualNodes per backend on the hash ring. Default 64.
	VirtualNodes int
	// ProbeInterval paces the health/generation probe loop. Default 2s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip. Default 2s.
	ProbeTimeout time.Duration
	// EjectAfter is the consecutive probe failures before a backend is
	// ejected from routing. Default 3.
	EjectAfter int
	// ReadmitBackoff is the first re-admission probe delay after an
	// ejection; it doubles per failed re-probe up to ReadmitBackoffMax.
	// Defaults 1s and 30s.
	ReadmitBackoff    time.Duration
	ReadmitBackoffMax time.Duration
	// HedgeAfter fixes the hedge delay: a predict call still unanswered
	// after this long launches a second attempt on the next replica. 0
	// derives the delay from the observed backend p95 (floored at
	// HedgeMin); negative disables hedging.
	HedgeAfter time.Duration
	// HedgeMin floors the derived hedge delay. Default 1ms.
	HedgeMin time.Duration
	// RequestTimeout bounds one inbound request end to end. Default 10s.
	RequestTimeout time.Duration
	// Client reaches the backends; nil selects a pooled transport.
	Client *http.Client
	// The five observability knobs, passed to the request edge as an
	// obs.EdgeConfig, which documents them and owns their defaults
	// (0 = default, negative = off).
	Logger           *slog.Logger
	TraceRing        int
	SlowThreshold    time.Duration
	SLOObjective     float64
	SLOLatencyTarget time.Duration
	// FleetScrapeTimeout bounds one backend /metrics scrape in the
	// fleet-aggregation endpoint. Default 2s.
	FleetScrapeTimeout time.Duration
}

func (c *Config) defaults() {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = defaultVirtualNodes
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ReadmitBackoff <= 0 {
		c.ReadmitBackoff = time.Second
	}
	if c.ReadmitBackoffMax <= 0 {
		c.ReadmitBackoffMax = 30 * time.Second
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.Client == nil {
		tr := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 128}
		c.Client = &http.Client{Transport: tr}
	}
	if c.FleetScrapeTimeout <= 0 {
		c.FleetScrapeTimeout = 2 * time.Second
	}
}

// Router is the scale-out gateway: it consistent-hashes canonicalised
// scenario keys across a replicated coloserve fleet, hedges slow
// predicts, forwards batches whole to the least-loaded backend, and
// coordinates rolling model promotions with per-client generation
// monotonicity.
type Router struct {
	cfg     Config
	pool    *Pool
	metrics *Metrics
	floors  floorTable
	backLat *obs.Histogram // completed predict proxy latencies → p95 hedge delay
	edge    *obs.Edge      // the request envelope every endpoint runs under
	fleet   *fleetobs.Aggregator
	started time.Time

	promoteMu sync.Mutex // serializes rolling promotions

	muxOnce sync.Once
	mux     http.Handler
}

// New builds a router. Join backends with Pool().Add, then (optionally)
// Start the probe loop.
func New(cfg Config) *Router {
	cfg.defaults()
	pool := newPool(cfg)
	rt := &Router{
		cfg:     cfg,
		pool:    pool,
		metrics: NewMetrics(pool),
		backLat: obs.NewHistogram(latencyBuckets),
		fleet:   &fleetobs.Aggregator{Client: cfg.Client, Timeout: cfg.FleetScrapeTimeout},
		started: time.Now(),
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

// Tracer returns the router's span tracer (nil when tracing is
// disabled via a negative Config.TraceRing).
func (rt *Router) Tracer() *obs.Tracer { return rt.edge.Tracer() }

// SLO returns the router's predict-path SLO tracker (nil when SLO
// tracking is disabled via a negative Config.SLOObjective).
func (rt *Router) SLO() *obs.SLOTracker { return rt.edge.SLO() }

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

// Handler returns the router's routing table (built once).
func (rt *Router) Handler() http.Handler {
	rt.muxOnce.Do(func() {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/predict", rt.wrap("predict", rt.handlePredict))
		mux.HandleFunc("POST /v1/predict/batch", rt.wrap("predict_batch", rt.handlePredictBatch))
		mux.HandleFunc("POST /v1/placements", rt.wrap("placements", rt.handlePlacements))
		mux.HandleFunc("POST /v1/observations", rt.wrap("observations", rt.handleObservations))
		mux.HandleFunc("POST /v1/models/reload", rt.wrap("reload", rt.handleReload))
		mux.HandleFunc("GET /v1/models", rt.wrap("models", rt.handleModels))
		mux.HandleFunc("GET /v1/cluster", rt.wrap("cluster", rt.handleCluster))
		mux.HandleFunc("GET /v1/traces", rt.wrap("traces", rt.handleTraces))
		mux.HandleFunc("GET /v1/slo", rt.wrap("slo", rt.handleSLO))
		fleetScrapes := rt.edge.Route("fleet_metrics")
		mux.HandleFunc("GET /v1/fleet/metrics", func(w http.ResponseWriter, r *http.Request) {
			fleetScrapes.Scrape(w, r, func(out io.Writer, tr *obs.Trace) { rt.writeFleetMetrics(r.Context(), out, tr) })
		})
		mux.HandleFunc("GET /healthz", rt.wrap("healthz", rt.handleHealthz))
		scrapes := rt.edge.Route("metrics")
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			scrapes.Scrape(w, r, func(out io.Writer, _ *obs.Trace) { rt.metrics.reg.Write(out) })
		})
		rt.mux = mux
	})
	return rt.mux
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
	hedgeWait    time.Duration // delay waited before a hedge fired (0: none fired)
}

// ok reports whether the result can be returned to a client: any
// definitive response that is not a drain shed. 4xx is definitive (all
// replicas would reject identically); 5xx and transport errors are not.
func (pr *proxyResult) ok() bool {
	return pr.err == nil && !pr.shed && pr.status < 500
}

// outboundTraceparent renders the W3C trace context to inject into one
// backend call: a fresh child of the request's router trace. Empty when
// tracing is disabled or the request carries no trace. Callers that
// outlive the request (abandoned hedge losers) must capture this string
// before the handler returns rather than hold the trace itself.
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

// outBody is an outbound request body over bytes the caller keeps.
type outBody struct{ bytes.Reader }

func (*outBody) Close() error { return nil }

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
// none): a string rather than the live trace, so calls that outlive
// the request never touch a recycled trace.
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
	if len(body) > 0 {
		req.ContentLength = int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) { return &outBody{*bytes.NewReader(body)}, nil }
		req.Body, _ = req.GetBody()
	}
	resp, err := rt.cfg.Client.Do(req.WithContext(ctx))
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
	b.metrics.request(err != nil || (pr.status >= 500 && !pr.shed))
	return pr
}

// proxy is send with the reply body read into memory (bounded).
func (rt *Router) proxy(ctx context.Context, b *Backend, method, path string, body []byte, reqID, tp string) *proxyResult {
	return rt.send(ctx, b, method, path, body, reqID, tp, readBody)
}

func readBody(pr *proxyResult, resp *http.Response) (err error) {
	pr.body, err = io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	return err
}

// failover makes one backend call against the candidates in order,
// moving on only while retry holds for the previous reply: notOK for
// idempotent reads (and for placements, which forwards nothing of a
// reply that is not ok), shedOnly for ingest. The first attempt is
// timed as a "proxy" child of parent and later ones as "retry"; each
// carries its backend's own span tree. Nothing here races candidates —
// hedgedCall's sidecar is the only place that does.
func failover(parent obs.Span, cands []*Backend, retry func(*proxyResult) bool, call func(*Backend) *proxyResult) *proxyResult {
	var pr *proxyResult
	name := "proxy"
	for _, b := range cands {
		sp := parent.StartChild(name)
		sp.Annotate("backend", b.Name)
		pr = call(b)
		sp.AttachRemote(b.Name, pr.traceSpans)
		sp.End()
		if !retry(pr) {
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

// hedgeDelay is the time to wait before launching a second attempt on
// the next replica: the configured HedgeAfter, or the observed backend
// p95 floored at HedgeMin. Negative HedgeAfter disables hedging.
func (rt *Router) hedgeDelay() time.Duration {
	if rt.cfg.HedgeAfter > 0 {
		return rt.cfg.HedgeAfter
	}
	if rt.cfg.HedgeAfter < 0 {
		return -1
	}
	if d := time.Duration(math.Round(rt.backLat.Quantile(0.95) * float64(time.Second))); d > rt.cfg.HedgeMin {
		return d
	}
	return rt.cfg.HedgeMin
}

// hedge is what one hedgedCall shares with its sidecar.
type hedge struct {
	mu     sync.Mutex
	next   int           // first candidate nobody has claimed
	closed bool          // the call has returned: a late sidecar starts nothing
	done   chan struct{} // made when the sidecar fires, closed when its reply is in
	wait   time.Duration // how long the call had run when the sidecar fired
	span   obs.Span      // the sidecar's "hedge" span
	reply  *proxyResult  // the sidecar's reply
}

// hedgedCall makes one backend call against the candidates with
// tail-latency hedging. The attempts run on the caller's goroutine, in
// order, a failed or shedding candidate failing over to the next at
// once. Beside them runs at most one sidecar: a timer that, if the call
// is still open after the hedge delay and a candidate is unclaimed,
// claims it and calls it from the timer's goroutine. The first usable
// reply wins; a sidecar that gets it cancels the context the inline
// attempt is blocked under, which releases the caller to take the
// sidecar's reply, and a caller that returns cancels the sidecar the
// same way. The losing reply is discarded and only the winner's
// latency feeds the p95 estimator, so hedges never double-count.
//
// The sidecar touches the trace only to open its "hedge" span, under
// h.mu and only while the call is open; every span is ended here, on
// the caller's goroutine, a loser annotated with why it lost. A sidecar
// that outlives the request therefore sees only pre-rendered strings,
// never the recycled trace.
func (rt *Router) hedgedCall(ctx context.Context, rq obs.Request, cands []*Backend, method, path string, body []byte) *proxyResult {
	tr, tp, start := rq.Trace, outboundTraceparent(rq.Trace), time.Now()
	h := &hedge{next: 1}
	actx := ctx
	if delay := rt.hedgeDelay(); delay > 0 && len(cands) > 1 {
		hctx, release := context.WithCancel(ctx)
		defer release()
		actx = hctx
		defer time.AfterFunc(delay, func() {
			h.mu.Lock()
			if h.closed || h.next == len(cands) {
				h.mu.Unlock()
				return
			}
			b := cands[h.next]
			h.next++
			rt.metrics.hedges.Inc()
			h.wait, h.done = time.Since(start), make(chan struct{})
			h.span = tr.StartSpan("hedge")
			h.span.Annotate("backend", b.Name)
			h.mu.Unlock()
			reply := rt.proxy(hctx, b, method, path, body, rq.ID, tp)
			h.mu.Lock()
			if h.reply = reply; reply.ok() {
				release()
			}
			h.mu.Unlock()
			close(h.done)
		}).Stop()
	}

	b := cands[0]
	for {
		sp := tr.StartSpan("proxy")
		sp.Annotate("backend", b.Name)
		pr := rt.proxy(actx, b, method, path, body, rq.ID, tp)
		h.mu.Lock()
		hedgeWon := h.reply != nil && h.reply.ok()
		if !pr.ok() && !hedgeWon {
			if ctx.Err() == nil && h.next < len(cands) {
				// Immediate failover: a failed or shedding candidate never
				// waits out the hedge timer.
				endAttempt(sp, pr, false)
				b = cands[h.next]
				h.next++
				h.mu.Unlock()
				continue
			}
			if h.done != nil && h.reply == nil {
				// Every inline attempt failed with the sidecar still out:
				// its reply decides.
				h.mu.Unlock()
				select {
				case <-h.done:
				case <-ctx.Done():
				}
				h.mu.Lock()
				hedgeWon = h.reply != nil && h.reply.ok()
			}
		}
		h.closed = true
		winner := pr
		if hedgeWon {
			endAttempt(sp, nil, false) // released by the sidecar's reply, not failed
			winner = h.reply
		} else {
			endAttempt(sp, pr, pr.ok())
		}
		if h.done != nil {
			endAttempt(h.span, h.reply, hedgeWon)
		}
		winner.hedgeWait = h.wait
		h.mu.Unlock()
		if winner.ok() {
			rt.backLat.Observe(winner.elapsed.Seconds())
			if hedgeWon {
				rt.metrics.hedgeWins.Inc()
			}
		}
		return winner
	}
}

// endAttempt closes one attempt's span: the winner's carries its
// backend's own span tree, a loser's says why it lost (no reply: it
// was still out when the call returned).
func endAttempt(sp obs.Span, pr *proxyResult, won bool) {
	switch {
	case won:
		sp.AttachRemote(pr.backend.Name, pr.traceSpans)
	case pr == nil:
		sp.Annotate("outcome", "abandoned")
	case pr.err != nil:
		sp.Fail(pr.err.Error())
	case pr.shed:
		sp.Annotate("outcome", "shed")
	default:
		sp.Annotate("outcome", "status "+strconv.Itoa(pr.status))
	}
	sp.End()
}

// candidates resolves the admissible backends for a key: the replica
// set in ring order filtered to available backends at or above the
// client's generation floor; if the whole set is inadmissible, any
// available backend meeting the floor (highest generation first) keeps
// the request servable at the cost of affinity.
func (rt *Router) candidates(key, model string, floor uint64) []*Backend {
	set := rt.pool.Replicas(key, rt.cfg.Replicas)
	cands := set[:0] // filtered in place: the set is this call's own
	for _, b := range set {
		if b.Available() && b.Gen(model) >= floor {
			cands = append(cands, b)
		}
	}
	if len(cands) > 0 {
		return cands
	}
	fallback := rt.pool.Available()
	sort.SliceStable(fallback, func(i, j int) bool { return fallback[i].Gen(model) > fallback[j].Gen(model) })
	for _, b := range fallback {
		if b.Gen(model) >= floor {
			cands = append(cands, b)
		}
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

// routeKey is the consistent-hash key of a scenario: the requested
// model plus the serve tier's canonical scenario form. The generation is
// left out: it must not move keys across the ring on every promotion.
func routeKey(model string, sc features.Scenario) string {
	return model + "|" + serve.CanonicalScenario(sc)
}

// ---- predict ----

// decodePredict reads a predict body for its route key with the scan
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
	raw, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return errJSON(http.StatusBadRequest, CodeBadRequest, "reading request body: %v", err)
	}
	req, err := decodePredict(raw)
	if err != nil {
		return errJSON(http.StatusBadRequest, CodeBadRequest, "decoding request body: %v", err)
	}
	sc := features.Scenario{Target: req.Target, CoApps: req.CoApps, PState: req.PState}
	key := routeKey(req.Model, sc)
	client := clientID(r)
	floor := rt.floors.get(client, req.Model)
	cands, route := routed(rq.Trace, func() []*Backend { return rt.candidates(key, req.Model, floor) })
	if len(cands) == 0 {
		rt.metrics.noBackend.Inc()
		return rt.retryableUnavailable(w, "no admissible backend (healthy at generation >= %d)", floor)
	}
	pr := rt.hedgedCall(r.Context(), rq, cands, http.MethodPost, "/v1/predict", raw)
	return rt.answer(w, pr, route, client, req.Model, predictReplyIdentity)
}

// answer finishes a routed predict or batch once its backend call is
// back: a transport failure is the typed 502, a round of sheds the
// retryable 503, and any reply is replayed as it came. identity reads
// the resolved model and serving generation off a 2xx body.
func (rt *Router) answer(w http.ResponseWriter, pr *proxyResult, route time.Duration, client, model string,
	identity func(body []byte) (string, uint64)) (int, any) {
	if pr.err != nil {
		return errJSON(http.StatusBadGateway, CodeBackendUnavailable, "all candidates failed: %v", pr.err)
	}
	if pr.shed {
		return rt.retryableUnavailable(w, "all admissible candidates are draining")
	}
	if pr.status < 300 {
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
// Server-Timing: route (candidate resolution), hedge_wait when a hedge
// fired, backend, then the backend's own stage breakdown.
func (rt *Router) replay(w http.ResponseWriter, pr *proxyResult, route time.Duration) (int, any) {
	var arr [192]byte
	b := obs.AppendServerTiming(arr[:0], "route", route)
	if pr.hedgeWait > 0 {
		b = obs.AppendServerTiming(b, "hedge_wait", pr.hedgeWait)
	}
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
	raw, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		return errJSON(http.StatusBadRequest, CodeBadRequest, "reading request body: %v", err)
	}
	var req struct {
		Model string `json:"model"`
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		return errJSON(http.StatusBadRequest, CodeBadRequest, "decoding request body: %v", err)
	}
	client := clientID(r)
	floor := rt.floors.get(client, req.Model)
	cands, route := routed(rq.Trace, func() []*Backend { return rt.leastLoaded(req.Model, floor) })
	if len(cands) == 0 {
		rt.metrics.noBackend.Inc()
		return rt.retryableUnavailable(w, "no admissible backend (healthy at generation >= %d)", floor)
	}
	tp := outboundTraceparent(rq.Trace)
	pr := failover(rq.Trace.Root(), cands, notOK, func(b *Backend) *proxyResult {
		return rt.proxy(r.Context(), b, http.MethodPost, "/v1/predict/batch", raw, rq.ID, tp)
	})
	return rt.answer(w, pr, route, client, req.Model, batchReplyIdentity)
}

// ---- observations ----

// obsItem / obsResponse mirror serve's observation wire types so
// shard responses merge without depending on serve's unexported error
// detail type.
type obsItem struct {
	PercentError float64      `json:"percent_error"`
	Error        *errorDetail `json:"error,omitempty"`
}

type obsResponse struct {
	Accepted         int       `json:"accepted"`
	Rejected         int       `json:"rejected"`
	Results          []obsItem `json:"results"`
	DriftTripped     bool      `json:"drift_tripped"`
	RetrainTriggered bool      `json:"retrain_triggered,omitempty"`
}

// handleObservations forwards observation ingest. Ingest is an append,
// not an idempotent read: it is never hedged, and it fails over only on
// a drain shed (definitely not processed). A batch is scattered so each
// backend folds its shard into a single group commit.
func (rt *Router) handleObservations(w http.ResponseWriter, r *http.Request, rq obs.Request) (int, any) {
	raw, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		return errJSON(http.StatusBadRequest, CodeBadRequest, "reading request body: %v", err)
	}
	var req serve.ObservationsRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return errJSON(http.StatusBadRequest, CodeBadRequest, "decoding request body: %v", err)
	}
	if len(req.Observations) > 1 {
		return rt.scatterObservations(r, rq, req.Observations)
	}
	one := req.ObservationRequest
	if len(req.Observations) > 0 {
		one = req.Observations[0]
	}
	sc := features.Scenario{Target: one.Target, CoApps: one.CoApps, PState: one.PState}
	cands, route := routed(rq.Trace, func() []*Backend { return rt.candidates(routeKey(one.Model, sc), one.Model, 0) })
	if len(cands) == 0 {
		rt.metrics.noBackend.Inc()
		return rt.retryableUnavailable(w, "no admissible backend")
	}
	tp := outboundTraceparent(rq.Trace)
	pr := failover(rq.Trace.Root(), cands, shedOnly, func(b *Backend) *proxyResult {
		return rt.proxy(r.Context(), b, http.MethodPost, "/v1/observations", raw, rq.ID, tp)
	})
	if pr.err != nil {
		return errJSON(http.StatusBadGateway, CodeBackendUnavailable, "observation ingest failed: %v", pr.err)
	}
	if pr.shed {
		return rt.retryableUnavailable(w, "all admissible candidates are draining")
	}
	return rt.replay(w, pr, route)
}

// group is one owner's shard of a scattered observation batch.
type group struct {
	cands []*Backend // the owner, then one failover alternate
	idx   []int      // request slots in this shard, in request order
}

var (
	errUnroutable  = errorDetail{Code: CodeNoBackend, Message: "no admissible backend for this scenario"}
	errShardFailed = errorDetail{Code: CodeBackendUnavailable, Message: "backend call failed for this slot's shard"}
)

// scatterObservations routes each observation of a batch to the backend
// that owns its scenario key — the routing predict uses, so it lands
// beside that scenario's drift stream — and gathers the shards
// concurrently: one sub-request per owner (in first-seen order), a shed
// failing over to one other available backend, each 200 reply spliced
// back into request order under one mutex. A slot that was not merged —
// unroutable, or of a failed shard — carries a typed error and counts as
// rejected. Gather workers are joined before the function returns, so
// span work inside them is safe.
func (rt *Router) scatterObservations(r *http.Request, rq obs.Request, observations []serve.ObservationRequest) (int, any) {
	ctx, tr := r.Context(), rq.Trace
	out := obsResponse{Results: make([]obsItem, len(observations))}
	ssp := tr.StartSpan("scatter")
	avail := rt.pool.Available()
	groups := make(map[string]*group)
	order := make([]*group, 0, 4)
	for i, or := range observations {
		sc := features.Scenario{Target: or.Target, CoApps: or.CoApps, PState: or.PState}
		cands := rt.candidates(routeKey(or.Model, sc), or.Model, 0)
		if len(cands) == 0 {
			rt.metrics.noBackend.Inc()
			out.Results[i].Error = &errUnroutable
			out.Rejected++
			continue
		}
		owner := cands[0]
		g := groups[owner.Name]
		if g == nil {
			g = &group{cands: []*Backend{owner}}
			for _, alt := range avail {
				if alt != owner {
					g.cands = append(g.cands, alt)
					break
				}
			}
			groups[owner.Name] = g
			order = append(order, g)
		}
		g.idx = append(g.idx, i)
	}
	ssp.End()

	tp := outboundTraceparent(tr)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, g := range order {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			gsp := tr.StartSpan("gather")
			gsp.Annotate("backend", g.cands[0].Name)
			defer gsp.End()
			picked := make([]serve.ObservationRequest, len(g.idx))
			for j, i := range g.idx {
				picked[j] = observations[i]
			}
			sub, _ := json.Marshal(serve.ObservationsRequest{Observations: picked})
			pr := failover(gsp, g.cands, shedOnly, func(b *Backend) *proxyResult {
				return rt.proxy(ctx, b, http.MethodPost, "/v1/observations", sub, rq.ID, tp)
			})
			var shard obsResponse
			ok := pr.ok() && pr.status == http.StatusOK && json.Unmarshal(pr.body, &shard) == nil && len(shard.Results) == len(g.idx)
			mu.Lock()
			defer mu.Unlock()
			if !ok {
				for _, i := range g.idx {
					out.Results[i].Error = &errShardFailed
				}
				out.Rejected += len(g.idx)
				return
			}
			out.Accepted += shard.Accepted
			out.Rejected += shard.Rejected
			out.DriftTripped = out.DriftTripped || shard.DriftTripped
			out.RetrainTriggered = out.RetrainTriggered || shard.RetrainTriggered
			for j, i := range g.idx {
				out.Results[i] = shard.Results[j]
			}
		}(g)
	}
	wg.Wait()
	return http.StatusOK, out
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
	for _, b := range rt.pool.Backends() {
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
	if resp.Completed {
		rt.metrics.promotions.Inc()
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
// available backend, so discovery (coloload, clients) sees the newest
// generation the fleet serves.
func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request, rq obs.Request) (int, any) {
	avail, route := routed(rq.Trace, func() []*Backend {
		avail := rt.pool.Available()
		sort.SliceStable(avail, func(i, j int) bool { return avail[i].Gen("") > avail[j].Gen("") })
		return avail
	})
	if len(avail) == 0 {
		rt.metrics.noBackend.Inc()
		return rt.retryableUnavailable(w, "no healthy backend")
	}
	pr := rt.proxy(r.Context(), avail[0], http.MethodGet, "/v1/models", nil, rq.ID, outboundTraceparent(rq.Trace))
	if pr.err != nil || pr.shed {
		return errJSON(http.StatusBadGateway, CodeBackendUnavailable, "listing models failed")
	}
	return rt.replay(w, pr, route)
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
	Members  []string      `json:"members"`
	Backends []BackendInfo `json:"backends"`
}

func (rt *Router) handleCluster(http.ResponseWriter, *http.Request, obs.Request) (int, any) {
	resp := ClusterResponse{Replicas: rt.cfg.Replicas, Members: rt.pool.Members()}
	for _, b := range rt.pool.Backends() {
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
	for _, b := range rt.pool.Backends() {
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
// per-backend liveness/generation/inflight/error-rate gauges, and the
// router's own metrics and SLO gauges.
func (rt *Router) writeFleetMetrics(ctx context.Context, w io.Writer, tr *obs.Trace) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.RequestTimeout)
	defer cancel()

	backends := rt.pool.Backends()
	targets := make([]fleetobs.Target, 0, len(backends))
	byName := make(map[string]*Backend, len(backends))
	for _, b := range backends {
		byName[b.Name] = b
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
		{"colorouter_fleet_backend_generation", "Default-model serving generation per backend.",
			func(bs *fleetobs.BackendScrape) float64 { return float64(byName[bs.Name].Gen("")) }},
		{"colorouter_fleet_backend_inflight", "Outstanding proxied calls per backend.",
			func(bs *fleetobs.BackendScrape) float64 { return float64(byName[bs.Name].Inflight()) }},
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
