package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
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

// Reply scripts of a scriptedBackend's request endpoints (its probe
// endpoints always answer healthy, so only request traffic discovers
// the script).
const (
	replyOK        = "200"
	replyTransport = "transport error"
	replyShed      = "503 + Retry-After: 3"
	reply500       = "500"
)

// batchItem / batchResponse mirror the serve tier's batch wire shape for
// the fakes that render it and the tests that read it back (serve keeps
// its error detail type unexported); the router itself forwards batch
// bytes and declares no such type.
type batchItem struct {
	Result json.RawMessage `json:"result,omitempty"`
	Error  *errorDetail    `json:"error,omitempty"`
}

type batchResponse struct {
	Model   string      `json:"model"`
	Results []batchItem `json:"results"`
	Errors  int         `json:"errors"`
}

// scriptedBackend is a coloserve stand-in covering every endpoint the
// router calls through send. Each request endpoint answers per the
// current script; a 200 is a well-formed reply that names the backend,
// so tests can tell who served what.
type scriptedBackend struct {
	name string
	ts   *httptest.Server
	gen  atomic.Uint64
	hits atomic.Int64 // request-endpoint calls received, whatever the script

	mu       sync.Mutex
	reply    string
	stall    time.Duration     // waited out before any scripted reply
	retryHdr string            // Retry-After value sent with replyShed
	reqIDs   map[string]string // inbound X-Request-ID of the latest call, by path
}

func (sb *scriptedBackend) script(reply string) {
	sb.mu.Lock()
	sb.reply = reply
	sb.mu.Unlock()
}

func newScriptedBackend(t *testing.T, name string, gen uint64) *scriptedBackend {
	t.Helper()
	sb := &scriptedBackend{name: name, reply: replyOK, retryHdr: "3", reqIDs: make(map[string]string)}
	sb.gen.Store(gen)
	scripted := func(ok http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			sb.hits.Add(1)
			sb.mu.Lock()
			reply, stall, retryHdr := sb.reply, sb.stall, sb.retryHdr
			sb.reqIDs[r.URL.Path] = r.Header.Get("X-Request-ID")
			sb.mu.Unlock()
			time.Sleep(stall)
			switch reply {
			case replyTransport:
				conn, _, err := w.(http.Hijacker).Hijack()
				if err == nil {
					conn.Close()
				}
			case replyShed:
				w.Header().Set("Retry-After", retryHdr)
				w.WriteHeader(http.StatusServiceUnavailable)
				io.WriteString(w, `{"error":{"code":"draining","message":"server is draining for shutdown"}}`)
			case reply500:
				w.WriteHeader(http.StatusInternalServerError)
				io.WriteString(w, `{"error":{"code":"internal","message":"boom"}}`)
			default:
				ok(w, r)
			}
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{"status":"ok"}`) })
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(serve.VersionResponse{
			DefaultModel: "demo", Generations: map[string]uint64{"demo": sb.gen.Load()},
		})
	})
	mux.HandleFunc("POST /v1/predict", scripted(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"model":"demo","generation":%d,"predicted_seconds":1.5}`, sb.gen.Load())
	}))
	mux.HandleFunc("POST /v1/predict/batch", scripted(func(w http.ResponseWriter, r *http.Request) {
		var req serve.BatchRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		results := make([]batchItem, len(req.Scenarios))
		for i, sc := range req.Scenarios {
			results[i].Result = json.RawMessage(fmt.Sprintf(
				`{"model":"demo","generation":%d,"target":%q,"served_by":%q}`, sb.gen.Load(), sc.Target, sb.name))
		}
		_ = json.NewEncoder(w).Encode(batchResponse{Model: "demo", Results: results})
	}))
	mux.HandleFunc("POST /v1/observations", scripted(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"accepted":1,"rejected":0}`)
	}))
	mux.HandleFunc("POST /v1/placements", scripted(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if !strings.Contains(string(body), `"stream":true`) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"plan":{"objective":2.0},"served_by":%q}`, sb.name)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"final":false,"plan":{"objective":2.5}}`+"\n")
		w.(http.Flusher).Flush()
		io.WriteString(w, `{"final":true,"plan":{"objective":2.0}}`+"\n")
	}))
	mux.HandleFunc("POST /v1/models/reload", scripted(func(w http.ResponseWriter, r *http.Request) {
		sb.gen.Add(1)
		io.WriteString(w, `{"reloaded":["demo"]}`)
	}))
	mux.HandleFunc("GET /v1/models", scripted(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"default":"demo","models":[{"name":"demo","generation":%d}]}`, sb.gen.Load())
	}))
	sb.ts = httptest.NewServer(mux)
	t.Cleanup(sb.ts.Close)
	return sb
}

// newScriptedRouter joins the backends and probes once, so every script is discovered by request traffic alone.
func newScriptedRouter(t *testing.T, cfg Config, sbs ...*scriptedBackend) *Router {
	t.Helper()
	rt := New(cfg)
	for _, sb := range sbs {
		if err := rt.Pool().Add(sb.name, sb.ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	rt.pool.ProbeAll(context.Background())
	return rt
}

// shedWindow reports how much longer the backend is marked shedding.
func shedWindow(b *Backend) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return time.Until(b.retryAt)
}

func obsBody(target string, measured float64) string {
	return fmt.Sprintf(`{"model":"demo","target":%q,"co_apps":["ep"],"pstate":0,"predicted_seconds":1,"measured_seconds":%g}`, target, measured)
}

// TestCallPathConformance puts the same scripted first candidate — a
// transport error, the typed drain shed, a 500, a 200 — behind every
// caller of send and checks, per caller, the failover decision its
// retry predicate promises, and, for all of them alike, what send owes
// the pool: a shed marks the backend shedding for the advertised 3 s
// and never ejects it, every attempt is counted once in the backend's
// requests/errors/sheds series, and no in-flight count leaks.
func TestCallPathConformance(t *testing.T) {
	type outcome struct {
		status   int
		servedBy string // backend whose reply reached the client ("" = none)
	}
	// failsOver is what notOK promises; shedOnly callers fail over on a
	// shed alone and otherwise answer from the first candidate's fate.
	failsOver := map[string]outcome{
		replyOK: {200, "a"}, replyTransport: {200, "b"}, replyShed: {200, "b"}, reply500: {200, "b"},
	}
	// Ingest, one observation or a batch forwarded whole, fails over on a
	// shed alone: a 500 may have appended, so it is replayed, not retried.
	ingest := map[string]outcome{
		replyOK: {200, "a"}, replyTransport: {502, ""}, replyShed: {200, "b"}, reply500: {500, "a"},
	}
	callers := []struct {
		name string
		call func(t *testing.T, rt *Router) (*httptest.ResponseRecorder, string)
		want map[string]outcome
	}{
		{"predict", func(t *testing.T, rt *Router) (*httptest.ResponseRecorder, string) {
			rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", predictBody(testScenario), nil)
			return rec, rec.Header().Get("X-Backend")
		}, failsOver},
		{"batch", func(t *testing.T, rt *Router) (*httptest.ResponseRecorder, string) {
			body := fmt.Sprintf(`{"model":"demo","scenarios":[{"target":%q,"co_apps":["ep"],"pstate":0}]}`, testScenario.Target)
			rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict/batch", body, nil)
			var resp batchResponse
			var slot struct {
				ServedBy string `json:"served_by"`
			}
			if json.Unmarshal(rec.Body.Bytes(), &resp) == nil && len(resp.Results) == 1 && resp.Results[0].Result != nil {
				_ = json.Unmarshal(resp.Results[0].Result, &slot)
			}
			return rec, slot.ServedBy
		}, failsOver},
		{"observation", func(t *testing.T, rt *Router) (*httptest.ResponseRecorder, string) {
			rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/observations", obsBody(testScenario.Target, 2), nil)
			return rec, rec.Header().Get("X-Backend")
		}, ingest},
		{"observation batch", func(t *testing.T, rt *Router) (*httptest.ResponseRecorder, string) {
			body := fmt.Sprintf(`{"observations":[%s,%s]}`, obsBody(testScenario.Target, 2), obsBody(testScenario.Target, 3))
			rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/observations", body, nil)
			return rec, rec.Header().Get("X-Backend")
		}, ingest},
		{"placements", func(t *testing.T, rt *Router) (*httptest.ResponseRecorder, string) {
			rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/placements", placementsBody, nil)
			return rec, rec.Header().Get("X-Backend")
		}, failsOver},
		{"placements streaming", func(t *testing.T, rt *Router) (*httptest.ResponseRecorder, string) {
			rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/placements", `{"machines":[{"count":2}],"apps":["cg","ep"],"stream":true}`, nil)
			if rec.Code == http.StatusOK && strings.Count(rec.Body.String(), "\n") != 2 {
				t.Errorf("streamed body is not the backend's two NDJSON lines: %q", rec.Body.String())
			}
			return rec, rec.Header().Get("X-Backend")
		}, failsOver},
		{"reload", func(t *testing.T, rt *Router) (*httptest.ResponseRecorder, string) {
			rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/models/reload", "", nil)
			var resp RolloutResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Backends) != 2 {
				t.Fatalf("rollout response: %v: %s", err, rec.Body.String())
			}
			// One proxy call per backend, never a retry elsewhere: "a" is
			// reported with its own fate, "b" reloads regardless.
			if resp.Backends[1].Error != "" {
				t.Errorf("healthy backend b failed its reload: %s", resp.Backends[1].Error)
			}
			if resp.Backends[0].Error == "" {
				return rec, "a"
			}
			return rec, ""
		}, map[string]outcome{
			replyOK: {200, "a"}, replyTransport: {200, ""}, replyShed: {200, ""}, reply500: {200, ""},
		}},
		{"models", func(t *testing.T, rt *Router) (*httptest.ResponseRecorder, string) {
			rec := doReq(t, rt.Handler(), http.MethodGet, "/v1/models", "", nil)
			return rec, rec.Header().Get("X-Backend")
		}, failsOver},
	}
	for _, caller := range callers {
		for _, reply := range []string{replyOK, replyTransport, replyShed, reply500} {
			t.Run(caller.name+"/"+reply, func(t *testing.T) {
				// "a" is every caller's first candidate: it sorts first by
				// name under equal load and equal generations.
				a, b := newScriptedBackend(t, "a", 1), newScriptedBackend(t, "b", 1)
				rt := newScriptedRouter(t, Config{Replicas: 2}, a, b)
				a.script(reply)
				ba, bb := rt.pool.Get("a"), rt.pool.Get("b")

				rec, servedBy := caller.call(t, rt)
				want := caller.want[reply]
				if rec.Code != want.status || servedBy != want.servedBy {
					t.Fatalf("status %d served by %q, want %d by %q: %s", rec.Code, servedBy, want.status, want.servedBy, rec.Body.String())
				}
				// b is called exactly when the caller's predicate fails over
				// (reload calls every backend once by design).
				wantB := int64(0)
				if want.servedBy == "b" || caller.name == "reload" {
					wantB = 1
				}
				if got := b.hits.Load(); got != wantB {
					t.Fatalf("second candidate saw %d calls, want %d", got, wantB)
				}

				wantErrs, wantSheds, wantState := uint64(0), uint64(0), StateHealthy
				switch reply {
				case replyTransport, reply500:
					wantErrs = 1
				case replyShed:
					wantSheds, wantState = 1, StateShedding
					if d := shedWindow(ba); d <= 2*time.Second || d > 3*time.Second {
						t.Fatalf("shedding for %v, want the advertised 3s", d)
					}
				}
				if got := ba.State(); got != wantState {
					t.Fatalf("backend a is %v, want %v", got, wantState)
				}
				if r, e, s := ba.metrics.requests.Load(), ba.metrics.errors.Load(), ba.metrics.sheds.Load(); r != 1 || e != wantErrs || s != wantSheds {
					t.Fatalf("backend a counted requests=%d errors=%d sheds=%d, want 1/%d/%d", r, e, s, wantErrs, wantSheds)
				}
				if r, e := bb.metrics.requests.Load(), bb.metrics.errors.Load(); r != uint64(wantB) || e != 0 {
					t.Fatalf("backend b counted requests=%d errors=%d, want %d/0", r, e, wantB)
				}
				scrape := doReq(t, rt.Handler(), http.MethodGet, "/metrics", "", nil).Body.String()
				for _, line := range []string{
					`colorouter_backend_requests_total{backend="a"} 1`,
					fmt.Sprintf(`colorouter_backend_errors_total{backend="a"} %d`, wantErrs),
					fmt.Sprintf(`colorouter_backend_sheds_total{backend="a"} %d`, wantSheds),
				} {
					if !strings.Contains(scrape, line) {
						t.Fatalf("scrape missing %q", line)
					}
				}
				if ba.Inflight() != 0 || bb.Inflight() != 0 {
					t.Fatalf("in-flight leaked: a=%d b=%d", ba.Inflight(), bb.Inflight())
				}
			})
		}
	}
}

// TestRouteStageIsCandidateResolution: the route Server-Timing stage is
// the time spent resolving candidates, whatever happens to the attempts
// after it. It used to be "everything but the last attempt" for
// observations and models, so a first candidate that stalled and then
// shed filed its whole round trip under route — and a batch reported no
// stages at all.
func TestRouteStageIsCandidateResolution(t *testing.T) {
	const stall = 50 * time.Millisecond
	for _, c := range []struct {
		name, path string
		body       func(target string) string
	}{
		{"predict", "/v1/predict", func(target string) string { return predictBody(features.Scenario{Target: target}) }},
		{"batch", "/v1/predict/batch", func(target string) string { return batchBody(target) }},
		{"observation", "/v1/observations", func(target string) string { return obsBody(target, 2) }},
	} {
		a, b := newScriptedBackend(t, "a", 1), newScriptedBackend(t, "b", 1)
		rt := newScriptedRouter(t, Config{Replicas: 2}, a, b)
		a.mu.Lock()
		a.reply, a.stall = replyShed, stall
		a.mu.Unlock()
		rec := doReq(t, rt.Handler(), http.MethodPost, c.path, c.body(testScenario.Target), nil)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Backend") != "b" || a.hits.Load() != 1 {
			t.Errorf("%s: status %d from %q after %d calls to a, want b's 200 after a's stalled shed",
				c.name, rec.Code, rec.Header().Get("X-Backend"), a.hits.Load())
			continue
		}
		st := rec.Header().Get("Server-Timing")
		route, ok := obs.ParseServerTiming(st)["route"]
		if !ok || !strings.HasPrefix(st, "route;dur=") || route >= stall.Seconds() {
			t.Errorf("%s: Server-Timing %q, want it to lead with a route stage under the %v the first attempt took", c.name, st, stall)
		}
	}
}

// TestPlacementsShedHonoursRetryAfter: a backend that sheds a
// placements call with Retry-After: 3 is marked shedding for 3 s — the
// inline copy of proxy this handler used to carry hard-coded 1 s.
func TestPlacementsShedHonoursRetryAfter(t *testing.T) {
	a, b := newScriptedBackend(t, "a", 1), newScriptedBackend(t, "b", 1)
	rt := newScriptedRouter(t, Config{}, a, b)
	a.script(replyShed)
	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/placements", placementsBody, nil)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Backend") != "b" {
		t.Fatalf("status %d from %q, want failover to b", rec.Code, rec.Header().Get("X-Backend"))
	}
	if d := shedWindow(rt.pool.Get("a")); d <= 2*time.Second || d > 3*time.Second {
		t.Fatalf("backend a shedding for %v, want the advertised 3s", d)
	}
}

// TestBatchAdvancesBackendGenerationGauge: a batch reply advances
// colorouter_backend_generation exactly as a single predict does (the
// batch path used to note the generation in the pool only).
func TestBatchAdvancesBackendGenerationGauge(t *testing.T) {
	a := newScriptedBackend(t, "a", 1)
	rt := newScriptedRouter(t, Config{Replicas: 1}, a)
	a.gen.Store(4) // promoted behind the router's back: only a reply reveals it
	body := `{"model":"demo","scenarios":[{"target":"cg","co_apps":["ep"],"pstate":0}]}`
	if rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict/batch", body, nil); rec.Code != http.StatusOK {
		t.Fatalf("batch returned %d: %s", rec.Code, rec.Body.String())
	}
	if got := rt.pool.Get("a").Gen("demo"); got != 4 {
		t.Fatalf("pool records generation %d, want 4", got)
	}
	scrape := doReq(t, rt.Handler(), http.MethodGet, "/metrics", "", nil).Body.String()
	if want := `colorouter_backend_generation{backend="a"} 4`; !strings.Contains(scrape, want) {
		t.Fatalf("scrape missing %q after a generation-4 batch reply", want)
	}
}

// TestRetryAfterParsedStrictly: the request path and the probe loop
// read Retry-After through one strict parser — a malformed value means
// 1 s to both (the request path used to take "5abc" as 5 s).
func TestRetryAfterParsedStrictly(t *testing.T) {
	for value, want := range map[string]time.Duration{
		"3": 3 * time.Second, " 7 ": 7 * time.Second, "5abc": time.Second, "0": time.Second, "-2": time.Second, "soon": time.Second,
	} {
		a, b := newScriptedBackend(t, "a", 1), newScriptedBackend(t, "b", 1)
		rt := newScriptedRouter(t, Config{Replicas: 2}, a, b)
		a.mu.Lock()
		a.reply, a.retryHdr = replyShed, value
		a.mu.Unlock()
		rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", predictBody(testScenario), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("Retry-After %q: predict returned %d", value, rec.Code)
		}
		if d := shedWindow(rt.pool.Get("a")); d <= want-time.Second || d > want {
			t.Fatalf("Retry-After %q: shedding for %v, want %v", value, d, want)
		}
	}
}

// TestObservationsForwardedWhole: an observation request — one
// observation, a batch, or bytes that are not JSON — reaches one backend
// as the caller's bytes, and the backend's reply reaches the caller as it
// came, so the node's limits and typed 400s are the router's.
func TestObservationsForwardedWhole(t *testing.T) {
	received := make(chan string, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{"status":"ok"}`) })
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{}`) })
	mux.HandleFunc("POST /v1/observations", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		received <- string(body)
		w.Header().Set("Content-Type", "application/json")
		if !json.Valid(body) {
			w.WriteHeader(http.StatusBadRequest)
			io.WriteString(w, `{"error":{"code":"bad_request","message":"the node's own refusal"}}`)
			return
		}
		fmt.Fprintf(w, `{"accepted":%d,"rejected":0}`, strings.Count(string(body), "measured_seconds"))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	rt := New(Config{})
	if err := rt.Pool().Add("a", ts.URL); err != nil {
		t.Fatal(err)
	}
	rt.pool.ProbeAll(context.Background())

	for _, c := range []struct {
		name, body, reply string
		status            int
	}{
		{"one", obsBody("cg", 2), `{"accepted":1,"rejected":0}`, http.StatusOK},
		{"batch", `{"observations":[` + obsBody("cg", 2) + `,` + obsBody("ep", 3) + `]}`, `{"accepted":2,"rejected":0}`, http.StatusOK},
		{"not JSON", `{"observations":[`, `{"error":{"code":"bad_request","message":"the node's own refusal"}}`, http.StatusBadRequest},
	} {
		rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/observations", c.body, nil)
		if got := <-received; got != c.body {
			t.Errorf("%s: the backend received %q, want the caller's %q", c.name, got, c.body)
		}
		if rec.Code != c.status || rec.Body.String() != c.reply || rec.Header().Get("X-Backend") != "a" {
			t.Errorf("%s: %d %q from %q, want the backend's %d %q", c.name, rec.Code, rec.Body.String(), rec.Header().Get("X-Backend"), c.status, c.reply)
		}
	}
}
