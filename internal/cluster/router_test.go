package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colocmodel/internal/features"
	"colocmodel/internal/obs"
	"colocmodel/internal/serve"
)

// fakeBackend is a scripted coloserve stand-in: it answers the probe
// and predict surface with controllable health, drain and generation,
// so routing decisions can be tested deterministically without training
// a model.
type fakeBackend struct {
	name string
	ts   *httptest.Server

	predicts   atomic.Int64
	batches    atomic.Int64
	placements atomic.Int64
	reloads    atomic.Int64
	gen        atomic.Uint64
	healthy    atomic.Bool
	drain      atomic.Bool
}

func writeShed(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	io.WriteString(w, `{"error":{"code":"draining","message":"server is draining for shutdown"}}`)
}

func newFakeBackend(t *testing.T, name string) *fakeBackend {
	t.Helper()
	fb := &fakeBackend{name: name}
	fb.healthy.Store(true)
	fb.gen.Store(1)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case fb.drain.Load():
			writeShed(w)
		case !fb.healthy.Load():
			w.WriteHeader(http.StatusInternalServerError)
		default:
			io.WriteString(w, `{"status":"ok"}`)
		}
	})
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(serve.VersionResponse{
			DefaultModel: "demo",
			Generations:  map[string]uint64{"demo": fb.gen.Load()},
		})
	})
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		if fb.drain.Load() {
			writeShed(w)
			return
		}
		fb.predicts.Add(1)
		// Mirror the serve tier's trace emission: when the router sent a
		// sampled traceparent, answer with a real span tree so stitching
		// is exercised against the production wire format.
		if tc, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok && tc.Sampled {
			bt := obs.NewTracer(obs.Config{}).Start("http", "predict", "backend-req")
			bt.AdoptContext(tc)
			for _, stage := range []string{"decode", "eval", "encode"} {
				sp := bt.StartSpan(stage)
				sp.End()
			}
			w.Header().Set(obs.TraceSpansHeader, bt.WireSpans())
			bt.Finish(http.StatusOK, false)
		}
		w.Header().Set("Server-Timing", "eval;dur=0.100")
		fmt.Fprintf(w, `{"model":"demo","generation":%d,"predicted_seconds":1.5,"predicted_slowdown":1.1}`, fb.gen.Load())
	})
	mux.HandleFunc("POST /v1/predict/batch", func(w http.ResponseWriter, r *http.Request) {
		if fb.drain.Load() {
			writeShed(w)
			return
		}
		fb.batches.Add(1)
		// Answer each scenario in order, at the backend's generation.
		var req serve.BatchRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		results := make([]batchItem, len(req.Scenarios))
		for i, sc := range req.Scenarios {
			results[i].Result = json.RawMessage(fmt.Sprintf(
				`{"model":"demo","generation":%d,"target":%q,"predicted_seconds":1.5}`, fb.gen.Load(), sc.Target))
		}
		_ = json.NewEncoder(w).Encode(batchResponse{Model: "demo", Results: results})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprintf(w, "# TYPE coloserve_requests_total counter\ncoloserve_requests_total{endpoint=\"predict\"} %d\n", fb.predicts.Load())
		fmt.Fprintf(w, "# TYPE coloserve_request_errors_total counter\ncoloserve_request_errors_total{endpoint=\"predict\"} 0\n")
		fmt.Fprintf(w, "# TYPE coloserve_in_flight_requests gauge\ncoloserve_in_flight_requests 0\n")
	})
	mux.HandleFunc("POST /v1/placements", func(w http.ResponseWriter, r *http.Request) {
		if fb.drain.Load() {
			writeShed(w)
			return
		}
		fb.placements.Add(1)
		// A streaming response: one incremental plan line, one final.
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"final":false,"plan":{"objective":2.5}}`+"\n")
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		fmt.Fprintf(w, `{"final":true,"plan":{"objective":2.0},"search":{"rounds":1,"improvements":1,"scenarios_predicted":8,"converged":true}}%s`, "\n")
	})
	mux.HandleFunc("POST /v1/models/reload", func(w http.ResponseWriter, r *http.Request) {
		fb.reloads.Add(1)
		fb.gen.Add(1)
		io.WriteString(w, `{"reloaded":["demo"]}`)
	})
	fb.ts = httptest.NewServer(mux)
	t.Cleanup(fb.ts.Close)
	return fb
}

// newTestRouter joins the fakes and probes once (no ticker: tests step
// the probe machinery explicitly via ProbeAll).
func newTestRouter(t *testing.T, cfg Config, fbs ...*fakeBackend) *Router {
	t.Helper()
	rt := New(cfg)
	for _, fb := range fbs {
		if err := rt.Pool().Add(fb.name, fb.ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	rt.pool.ProbeAll(context.Background())
	return rt
}

func doReq(t *testing.T, h http.Handler, method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// testScenario is the scenario of the tests' predicts; which backend
// serves it is a matter of load alone.
var testScenario = features.Scenario{Target: "cg", CoApps: []string{"ep"}}

func predictBody(sc features.Scenario) string {
	return fmt.Sprintf(`{"model":"demo","target":%q,"co_apps":["ep"],"pstate":%d}`, sc.Target, sc.PState)
}

// batchBody is a batch request for model "demo" over the named targets.
func batchBody(targets ...string) string {
	rows := make([]string, len(targets))
	for i, target := range targets {
		rows[i] = fmt.Sprintf(`{"target":%q,"co_apps":["ep"],"pstate":0}`, target)
	}
	return `{"model":"demo","scenarios":[` + strings.Join(rows, ",") + `]}`
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCandidatesLeastLoadedFirst pins the one routing rule: the
// available backends at the floor, least in-flight first, ties broken by
// name, at most limit of them; a backend is a candidate as soon as it
// joins.
func TestCandidatesLeastLoadedFirst(t *testing.T) {
	rt := New(Config{})
	for _, name := range []string{"c", "a", "d", "b"} {
		if err := rt.Pool().Add(name, "http://"+name); err != nil {
			t.Fatal(err)
		}
	}
	get := rt.pool.Get
	check := func(what string, got []*Backend, want string) {
		t.Helper()
		names := make([]string, len(got))
		for i, b := range got {
			names[i] = b.Name
		}
		if strings.Join(names, ",") != want {
			t.Errorf("%s: candidates %v, want %s", what, names, want)
		}
	}
	check("equal load", rt.candidates("", 0, 0), "a,b,c,d")
	get("a").acquire()
	get("a").acquire()
	get("c").acquire()
	check("a busy twice, c once", rt.candidates("", 0, 0), "b,d,c,a")
	check("limit 2", rt.candidates("", 0, 2), "b,d")
	get("d").state.Store(int32(StateShedding))
	check("d shedding", rt.candidates("", 0, 0), "b,c,a")
	get("c").SetGeneration("demo", 2)
	get("a").SetGeneration("demo", 3)
	check("floor 2", rt.candidates("demo", 2, 0), "c,a")
	check("floor 2, limit 1", rt.candidates("demo", 2, 1), "c")
	if err := rt.Pool().Add("e", "http://e"); err != nil {
		t.Fatal(err)
	}
	check("e joined", rt.candidates("", 0, 0), "b,e,c,a")
}

// TestPredictProxy pins the basic hop contract: the first candidate
// serves the request, the request ID is echoed, and the router's Server-Timing
// stitches its hop stages in front of the backend's own breakdown.
func TestPredictProxy(t *testing.T) {
	a := newFakeBackend(t, "a")
	b := newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{Replicas: 2}, a, b)

	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", predictBody(testScenario),
		map[string]string{"X-Request-ID": "req-42"})
	if rec.Code != http.StatusOK {
		t.Fatalf("predict returned %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Request-ID"); got != "req-42" {
		t.Fatalf("X-Request-ID %q, want the client's req-42 echoed", got)
	}
	if got := rec.Header().Get("X-Backend"); got != "a" {
		t.Fatalf("served by %q, want a, first by name under equal load", got)
	}
	st := rec.Header().Get("Server-Timing")
	for _, stage := range []string{"route", "backend", "eval"} {
		if !strings.Contains(st, stage) {
			t.Fatalf("Server-Timing %q missing stage %q", st, stage)
		}
	}
	if a.predicts.Load() != 1 || b.predicts.Load() != 0 {
		t.Fatalf("backend calls a=%d b=%d, want exactly one on a", a.predicts.Load(), b.predicts.Load())
	}
	// The response generation raised the anonymous floor.
	if got := rt.floors.get("", "demo"); got != 1 {
		t.Fatalf("anonymous floor %d after a gen-1 response, want 1", got)
	}
}

// TestDrainShedFailover pins satellite behaviour: a typed 503 with
// Retry-After re-routes the request and marks the backend shedding —
// alive, skipped, NOT ejected — while a plain failure would count
// toward ejection.
func TestDrainShedFailover(t *testing.T) {
	a := newFakeBackend(t, "a")
	b := newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{Replicas: 2}, a, b)

	a.drain.Store(true)
	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", predictBody(testScenario), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict during a's drain returned %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Backend"); got != "b" {
		t.Fatalf("served by %q, want failover to b", got)
	}
	ba := rt.pool.Get("a")
	if got := ba.State(); got != StateShedding {
		t.Fatalf("drained backend state %v, want shedding (alive, not ejected)", got)
	}
	if got := rt.pool.Get("a").metrics.sheds.Load(); got != 1 {
		t.Fatalf("sheds(a) %d, want 1", got)
	}
	// Probe sees the typed shed too and keeps the state, not ejecting.
	rt.pool.ProbeAll(context.Background())
	if got := ba.State(); got != StateShedding {
		t.Fatalf("state after probe %v, want still shedding", got)
	}
	// Drain ends: the next probe re-admits immediately (shedding never
	// carries a re-admission backoff).
	a.drain.Store(false)
	rt.pool.ProbeAll(context.Background())
	if got := ba.State(); got != StateHealthy {
		t.Fatalf("state after drain ended %v, want healthy", got)
	}
}

// TestCancelledRequestTriesOneBackend: failover ends once the request's
// context is done. A predict, batch, placement search or model listing
// whose caller has already gone makes one backend attempt, charges that
// backend at most one error, and is answered the typed 502.
func TestCancelledRequestTriesOneBackend(t *testing.T) {
	for _, c := range []struct{ name, method, path, body string }{
		{"predict", http.MethodPost, "/v1/predict", predictBody(testScenario)},
		{"batch", http.MethodPost, "/v1/predict/batch", batchBody("cg", "ep")},
		{"placements", http.MethodPost, "/v1/placements", `{}`},
		{"models", http.MethodGet, "/v1/models", ""},
	} {
		fbs := []*fakeBackend{newFakeBackend(t, "a"), newFakeBackend(t, "b"), newFakeBackend(t, "c")}
		rt := newTestRouter(t, Config{Replicas: 2}, fbs...)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)).WithContext(ctx))
		var attempts, errs uint64
		for _, fb := range fbs {
			bm := &rt.pool.Get(fb.name).metrics
			attempts += bm.requests.Load()
			errs += bm.errors.Load()
		}
		if attempts != 1 || errs > 1 || rec.Code != http.StatusBadGateway {
			t.Errorf("%s: %d backend attempts, %d counted errors, status %d; want 1, at most 1, 502",
				c.name, attempts, errs, rec.Code)
		}
	}
}

// TestEjectionAndReadmission steps the probe state machine: consecutive
// probe failures eject (without leaving the pool), and a recovered
// backend is re-admitted after its backoff.
func TestEjectionAndReadmission(t *testing.T) {
	a := newFakeBackend(t, "a")
	b := newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{
		Replicas:   2,
		EjectAfter: 2,
	}, a, b)
	rt.pool.backoffBase = time.Millisecond
	ctx := context.Background()
	ba := rt.pool.Get("a")

	a.healthy.Store(false)
	rt.pool.ProbeAll(ctx)
	if got := ba.State(); got != StateHealthy {
		t.Fatalf("state after 1 failed probe %v, want still healthy (threshold 2)", got)
	}
	rt.pool.ProbeAll(ctx)
	if got := ba.State(); got != StateEjected {
		t.Fatalf("state after 2 failed probes %v, want ejected", got)
	}
	if got := rt.pool.Get("a").metrics.ejections.Load(); got != 1 {
		t.Fatalf("ejections(a) %d, want 1", got)
	}
	if got := len(rt.pool.Backends()); got != 2 {
		t.Fatalf("pool members %d after ejection, want 2 (health never changes membership)", got)
	}
	if got := len(rt.pool.Available()); got != 1 {
		t.Fatalf("available backends %d, want 1", got)
	}

	a.healthy.Store(true)
	time.Sleep(2 * time.Millisecond) // let the 1ms re-admission backoff lapse
	rt.pool.ProbeAll(ctx)
	if got := ba.State(); got != StateHealthy {
		t.Fatalf("state after recovery probe %v, want healthy", got)
	}
	if got := rt.pool.Get("a").metrics.readmissions.Load(); got != 1 {
		t.Fatalf("readmissions(a) %d, want 1", got)
	}
}

// TestGenerationFloorRouting pins the no-mixed-generation-window
// property at the unit level: once a client has seen generation 2, it
// is never again routed to a backend still serving generation 1 — even
// when that backend is the least loaded — while fresh clients still go
// by load alone.
func TestGenerationFloorRouting(t *testing.T) {
	a := newFakeBackend(t, "a")
	b := newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{Replicas: 1}, a, b)
	ctx := context.Background()
	hdr := map[string]string{"X-Client-ID": "c1"}

	// Promote a to generation 2 (b stays at 1) and refresh the record.
	a.gen.Store(2)
	rt.pool.RefreshGeneration(ctx, rt.pool.Get("a"))

	// The client observes generation 2 on a — its floor rises.
	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", predictBody(testScenario), hdr)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Backend") != "a" {
		t.Fatalf("predict on a: code %d backend %q", rec.Code, rec.Header().Get("X-Backend"))
	}
	if got := rt.floors.get("c1", "demo"); got != 2 {
		t.Fatalf("client floor %d after seeing generation 2, want 2", got)
	}

	// With a busy, the unpromoted b is the least loaded: c1 must NOT go
	// backwards to it.
	ba := rt.pool.Get("a")
	ba.acquire()
	rec = doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", predictBody(testScenario), hdr)
	if rec.Code != http.StatusOK {
		t.Fatalf("floored predict returned %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Backend"); got != "a" {
		t.Fatalf("client with floor 2 served by %q (gen 1), want a (gen 2)", got)
	}
	// A fresh client still goes to the least loaded.
	rec = doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", predictBody(testScenario),
		map[string]string{"X-Client-ID": "c2"})
	if got := rec.Header().Get("X-Backend"); got != "b" {
		t.Fatalf("fresh client served by %q, want the least-loaded b", got)
	}

	// Batches route by the same rule: a fresh client's batch goes to b,
	// c1's never does.
	batch := batchBody("cg", "ep")
	rec = doReq(t, rt.Handler(), http.MethodPost, "/v1/predict/batch", batch, map[string]string{"X-Client-ID": "c3"})
	if got := rec.Header().Get("X-Backend"); rec.Code != http.StatusOK || got != "b" {
		t.Fatalf("fresh client's batch: code %d from %q, want the least-loaded b", rec.Code, got)
	}
	rec = doReq(t, rt.Handler(), http.MethodPost, "/v1/predict/batch", batch, hdr)
	if got := rec.Header().Get("X-Backend"); rec.Code != http.StatusOK || got != "a" {
		t.Fatalf("batch of a client with floor 2: code %d from %q (gen 1), want a (gen 2)", rec.Code, got)
	}
	// A batch reply raises the floor like a predict's, the serving
	// backend's pool record and generation gauge first: b was promoted to
	// 3 behind the router's back, c3's next batch finds out, and the one
	// after it still finds b admissible at the raised floor.
	b.gen.Store(3)
	for i := 0; i < 2; i++ {
		rec = doReq(t, rt.Handler(), http.MethodPost, "/v1/predict/batch", batch, map[string]string{"X-Client-ID": "c3"})
		if got := rec.Header().Get("X-Backend"); rec.Code != http.StatusOK || got != "b" {
			t.Fatalf("batch %d after b's promotion: code %d from %q, want b: %s", i, rec.Code, got, rec.Body.String())
		}
	}
	if floor, gen := rt.floors.get("c3", "demo"), rt.pool.Get("b").Gen("demo"); floor != 3 || gen != 3 {
		t.Fatalf("after a generation-3 batch reply: client floor %d, pool record %d, want 3 and 3", floor, gen)
	}
	scrape := doReq(t, rt.Handler(), http.MethodGet, "/metrics", "", nil).Body.String()
	if want := `colorouter_backend_generation{backend="b"} 3`; !strings.Contains(scrape, want) {
		t.Fatalf("scrape missing %q after a generation-3 batch reply", want)
	}
	ba.release()
	// No backend at the floor: the retryable typed 503, as for a predict.
	rt.floors.raise("c4", "demo", 9)
	rec = doReq(t, rt.Handler(), http.MethodPost, "/v1/predict/batch", batch, map[string]string{"X-Client-ID": "c4"})
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusServiceUnavailable ||
		eb.Error.Code != CodeNoBackend || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("batch with no backend at the floor: %d %s (Retry-After %q), want the retryable typed 503",
			rec.Code, rec.Body.String(), rec.Header().Get("Retry-After"))
	}
}

// TestRollingPromotion drives the router's reload endpoint: every
// backend reloads exactly once, the recorded generations advance, and
// the rollout reports completion.
func TestRollingPromotion(t *testing.T) {
	fbs := []*fakeBackend{newFakeBackend(t, "a"), newFakeBackend(t, "b"), newFakeBackend(t, "c")}
	rt := newTestRouter(t, Config{Replicas: 2}, fbs...)
	hdr := map[string]string{"X-Client-ID": "c1"}
	if rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict/batch", batchBody("cg"), hdr); rec.Code != http.StatusOK || rt.floors.get("c1", "demo") != 1 {
		t.Fatalf("batch before the promotion: %d, floor %d, want 200 and 1", rec.Code, rt.floors.get("c1", "demo"))
	}

	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/models/reload", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("reload returned %d: %s", rec.Code, rec.Body.String())
	}
	var resp RolloutResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Completed {
		t.Fatalf("rollout not completed: %+v", resp)
	}
	if len(resp.Backends) != 3 {
		t.Fatalf("rollout covered %d backends, want 3", len(resp.Backends))
	}
	for _, rb := range resp.Backends {
		if rb.Error != "" {
			t.Fatalf("backend %s failed: %s", rb.Backend, rb.Error)
		}
		if rb.Generation != 2 {
			t.Fatalf("backend %s at generation %d after promotion, want 2", rb.Backend, rb.Generation)
		}
	}
	for _, fb := range fbs {
		if got := fb.reloads.Load(); got != 1 {
			t.Fatalf("backend %s reloaded %d times, want exactly 1", fb.name, got)
		}
	}
	if got := rt.metrics.promotions.Load(); got != 1 {
		t.Fatalf("promotions %d, want 1", got)
	}
	// A batch sees the promoted fleet and raises its client's floor to it.
	batch := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict/batch", batchBody("cg", "ep"), hdr)
	if batch.Code != http.StatusOK || !strings.Contains(batch.Body.String(), `"generation":2`) {
		t.Fatalf("batch after the promotion: %d %s", batch.Code, batch.Body.String())
	}
	if got := rt.floors.get("c1", "demo"); got != 2 {
		t.Fatalf("client floor %d after a generation-2 batch, want 2", got)
	}
}

// TestRestartedBackendCatchesUp covers the process-restart hole in the
// promotion protocol: serve generations are per-process swap counters,
// so a restarted replica reports a LOWER generation than the pool
// remembers. The probe must adopt the reset (not keep the stale
// high-water mark, which would route floor-holding clients to a backend
// that cannot satisfy their floor), and the next rollout must issue
// catch-up reloads until the straggler matches the fleet maximum —
// otherwise one reload each leaves it permanently behind.
func TestRestartedBackendCatchesUp(t *testing.T) {
	a, b := newFakeBackend(t, "a"), newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{Replicas: 2}, a, b)

	// First rollout: fleet converges at generation 2.
	if rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/models/reload", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("reload returned %d: %s", rec.Code, rec.Body.String())
	}

	// b "restarts": its swap counter resets to 1. The next probe is
	// authoritative and must adopt the lower value.
	b.gen.Store(1)
	rt.pool.ProbeAll(context.Background())
	if got := rt.pool.Get("b").Gen("demo"); got != 1 {
		t.Fatalf("pool records b at generation %d after restart probe, want 1 (stale high-water mark kept)", got)
	}

	// Second rollout: a goes 2->3 with one reload; b needs the rolling
	// reload (1->2) plus one catch-up (2->3).
	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/models/reload", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("reload returned %d: %s", rec.Code, rec.Body.String())
	}
	var resp RolloutResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Completed {
		t.Fatalf("rollout with a straggler not completed: %+v", resp)
	}
	for _, rb := range resp.Backends {
		if rb.Generation != 3 {
			t.Fatalf("backend %s at generation %d after catch-up rollout, want 3", rb.Backend, rb.Generation)
		}
	}
	if got := a.reloads.Load(); got != 2 {
		t.Fatalf("a reloaded %d times total, want 2 (one per rollout)", got)
	}
	if got := b.reloads.Load(); got != 3 {
		t.Fatalf("b reloaded %d times total, want 3 (rollouts + one catch-up)", got)
	}
	if got, want := rt.pool.Get("b").Gen("demo"), uint64(3); got != want {
		t.Fatalf("pool records b at generation %d, want %d", got, want)
	}
}

// TestNoBackendTyped503 pins the router's own typed unavailability: no
// admissible backend yields a retryable 503 with code "no_backend" on
// every endpoint that needs one.
func TestNoBackendTyped503(t *testing.T) {
	a := newFakeBackend(t, "a")
	rt := newTestRouter(t, Config{Replicas: 1}, a)
	a.healthy.Store(false)
	rt.pool.ProbeAll(context.Background())
	rt.pool.ProbeAll(context.Background())
	rt.pool.ProbeAll(context.Background()) // default EjectAfter=3

	sc := features.Scenario{Target: "cg", CoApps: []string{"ep"}, PState: 0}
	for i, c := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/predict", predictBody(sc)},
		{http.MethodPost, "/v1/predict/batch", batchBody("cg")},
		{http.MethodGet, "/v1/models", ""},
	} {
		rec := doReq(t, rt.Handler(), c.method, c.path, c.body, nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s with no backends returned %d, want 503", c.path, rec.Code)
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatal(err)
		}
		if eb.Error.Code != CodeNoBackend {
			t.Fatalf("%s: error code %q, want %q", c.path, eb.Error.Code, CodeNoBackend)
		}
		// Retryable by contract: send takes a 503 without Retry-After for
		// a backend failure, which a router behind a router would eject on.
		if got := rec.Header().Get("Retry-After"); got != "1" {
			t.Fatalf("%s: Retry-After %q, want 1", c.path, got)
		}
		if got := rt.metrics.noBackend.Load(); got != uint64(i+1) {
			t.Fatalf("%s: no_backend counter %d, want %d", c.path, got, i+1)
		}
	}
}

// TestHealthzAndClusterEndpoints sanity-checks the introspection
// surface: healthz summarises fleet health, /v1/cluster lists members
// with state and generations, /metrics renders the Prometheus text.
func TestHealthzAndClusterEndpoints(t *testing.T) {
	a := newFakeBackend(t, "a")
	b := newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{Replicas: 2}, a, b)

	rec := doReq(t, rt.Handler(), http.MethodGet, "/healthz", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz returned %d", rec.Code)
	}
	var hr HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Healthy != 2 || hr.Backends != 2 {
		t.Fatalf("healthz reports %d/%d healthy, want 2/2", hr.Healthy, hr.Backends)
	}

	rec = doReq(t, rt.Handler(), http.MethodGet, "/v1/cluster", "", nil)
	var cr ClusterResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Backends) != 2 || cr.Replicas != 2 {
		t.Fatalf("cluster listing %+v, want 2 backends, R=2", cr)
	}
	for _, bi := range cr.Backends {
		if bi.State != "healthy" || bi.Generations["demo"] != 1 {
			t.Fatalf("backend %s: state %s gens %v, want healthy at gen 1", bi.Name, bi.State, bi.Generations)
		}
	}

	rec = doReq(t, rt.Handler(), http.MethodGet, "/metrics", "", nil)
	for _, metric := range []string{"colorouter_requests_total", "colorouter_backend_requests_total", "colorouter_backends_healthy 2"} {
		if !strings.Contains(rec.Body.String(), metric) {
			t.Fatalf("/metrics missing %q", metric)
		}
	}
}

// TestBatchForwardedWhole: a batch reaches one backend, once, and its
// slots come back in request order; however many backends the fleet has
// and whichever of them serves, the reply is byte for byte what a fleet
// of one answers.
func TestBatchForwardedWhole(t *testing.T) {
	a := newFakeBackend(t, "a")
	b := newFakeBackend(t, "b")
	c := newFakeBackend(t, "c")
	rt := newTestRouter(t, Config{Replicas: 1}, a, b)

	wantTargets := []string{"cg", "ep", "cg"}
	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict/batch", batchBody(wantTargets...), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch returned %d: %s", rec.Code, rec.Body.String())
	}
	if na, nb := a.batches.Load(), b.batches.Load(); na+nb != 1 {
		t.Fatalf("backends saw %d and %d batch calls for one batch, want one call in all", na, nb)
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 || resp.Errors != 0 {
		t.Fatalf("batch results %d errors %d, want 3/0", len(resp.Results), resp.Errors)
	}
	// Order preserved: slot targets match the request order.
	for i, item := range resp.Results {
		var id struct {
			Target string `json:"target"`
		}
		if err := json.Unmarshal(item.Result, &id); err != nil {
			t.Fatal(err)
		}
		if id.Target != wantTargets[i] {
			t.Fatalf("slot %d answered for %q, want %q (order lost on the way)", i, id.Target, wantTargets[i])
		}
	}

	// Property: whichever of three backends the load picks for a random
	// batch, the reply equals the answer of a fleet of one byte for byte.
	fleet := newTestRouter(t, Config{Replicas: 1}, a, b, c)
	solo := newTestRouter(t, Config{Replicas: 1}, a)
	rng := rand.New(rand.NewSource(5))
	served := map[string]bool{}
	for round := 0; round < 20; round++ {
		targets := make([]string, 1+rng.Intn(48))
		for i := range targets {
			targets[i] = fmt.Sprintf("app%d", rng.Intn(500))
		}
		// A different backend looks busy each round, so each gets its turn.
		busy := fleet.pool.Get([]string{"a", "b", "c"}[round%3])
		busy.acquire()
		got := doReq(t, fleet.Handler(), http.MethodPost, "/v1/predict/batch", batchBody(targets...), nil)
		busy.release()
		want := doReq(t, solo.Handler(), http.MethodPost, "/v1/predict/batch", batchBody(targets...), nil)
		if got.Code != http.StatusOK || want.Code != http.StatusOK {
			t.Fatalf("round %d: fleet answered %d, fleet of one %d: %s", round, got.Code, want.Code, got.Body.String())
		}
		if got.Body.String() != want.Body.String() || strings.Count(got.Body.String(), `"result"`) != len(targets) {
			t.Fatalf("round %d (%d slots, served by %s): fleet answered %s, a fleet of one %s",
				round, len(targets), got.Header().Get("X-Backend"), got.Body.String(), want.Body.String())
		}
		served[got.Header().Get("X-Backend")] = true
	}
	if len(served) < 2 {
		t.Fatalf("every round was served by %v: the property never left one backend", served)
	}
}

// TestConcurrentTrafficUnderChurn hammers the router from many
// goroutines while health flaps and a promotion rolls — a -race canary
// for the pool/floor data structures. During a simultaneous drain
// and promotion a request's generation floor can leave only the
// draining backend admissible; the router answers that window with its
// typed retryable 503 (Retry-After set), which is the one non-200
// outcome the test accepts.
func TestConcurrentTrafficUnderChurn(t *testing.T) {
	fbs := []*fakeBackend{newFakeBackend(t, "a"), newFakeBackend(t, "b"), newFakeBackend(t, "c")}
	rt := newTestRouter(t, Config{Replicas: 2}, fbs...)
	h := rt.Handler()
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var served, retryable atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sc := features.Scenario{Target: fmt.Sprintf("app%d", (w*100+i)%23), CoApps: []string{"ep"}, PState: i % 2}
				rec := doReq(t, h, http.MethodPost, "/v1/predict", predictBody(sc),
					map[string]string{"X-Client-ID": fmt.Sprintf("w%d", w)})
				switch {
				case rec.Code == http.StatusOK:
					served.Add(1)
				case rec.Code == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") != "":
					retryable.Add(1)
				default:
					t.Errorf("predict returned %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			fbs[1].drain.Store(true)
			rt.pool.ProbeAll(ctx)
			fbs[1].drain.Store(false)
			rt.pool.ProbeAll(ctx)
			doReq(t, h, http.MethodPost, "/v1/models/reload", "", nil)
		}
	}()
	wg.Wait() // traffic workers finish first
	close(stop)
	churn.Wait()
	if served.Load() == 0 {
		t.Fatal("no request succeeded under churn")
	}
	if r, s := retryable.Load(), served.Load(); r > s/4 {
		t.Fatalf("%d retryable 503s vs %d served: churn starved the fleet", r, s)
	}
}
