package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colocmodel/internal/obs"
	"colocmodel/internal/serve"
)

// The hedge contract, each case stepped by gates: attempts on the
// caller's goroutine, one sidecar, first usable reply wins.

// gatedBackend is a coloserve stand-in whose predict endpoint is stepped
// by the test: each call is counted on arrival, then waits for the gate
// (when one is set) or for its caller to hang up, then either answers
// reply or drops the connection. Probes always answer healthy.
type gatedBackend struct {
	name  string
	ts    *httptest.Server
	calls atomic.Int64
	gate  chan struct{} // nil: answer at once
	once  sync.Once
	fail  bool // answer by dropping the connection
	reply string
}

// open lets every call waiting at the gate, and every later one, through.
func (gb *gatedBackend) open() { gb.once.Do(func() { close(gb.gate) }) }

func newGatedBackend(t *testing.T, name string, gated, fail bool) *gatedBackend {
	t.Helper()
	gb := &gatedBackend{name: name, fail: fail,
		reply: fmt.Sprintf(`{"model":"demo","generation":1,"served_by":%q}`, name)}
	if gated {
		gb.gate = make(chan struct{})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{"status":"ok"}`) })
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(serve.VersionResponse{DefaultModel: "demo", Generations: map[string]uint64{"demo": 1}})
	})
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		gb.calls.Add(1)
		_, _ = io.Copy(io.Discard, r.Body) // a server sees its caller hang up only once the body is read
		if gb.gate != nil {
			select {
			case <-gb.gate:
			case <-r.Context().Done():
				return
			}
		}
		if gb.fail {
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		io.WriteString(w, gb.reply)
	})
	gb.ts = httptest.NewServer(mux)
	t.Cleanup(gb.ts.Close)
	if gated {
		t.Cleanup(gb.open) // a failed test must not leave Close waiting on a gated call
	}
	return gb
}

// hedgeFleet joins a and b behind a router that keeps every trace, and
// returns a request body whose scenario a owns.
func hedgeFleet(t *testing.T, hedgeAfter time.Duration, a, b *gatedBackend) (*Router, string) {
	t.Helper()
	rt := New(Config{Replicas: 2, HedgeAfter: hedgeAfter, SlowThreshold: -1})
	for _, gb := range []*gatedBackend{a, b} {
		if err := rt.Pool().Add(gb.name, gb.ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	rt.pool.ProbeAll(context.Background())
	return rt, predictBody(scenarioOwnedBy(t, rt, "a"))
}

// predictAsync issues one predict under ctx and delivers the reply.
func predictAsync(ctx context.Context, rt *Router, body string) <-chan *httptest.ResponseRecorder {
	out := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)).WithContext(ctx))
		out <- rec
	}()
	return out
}

// awaitReply waits for a reply the test has unblocked.
func awaitReply(t *testing.T, replies <-chan *httptest.ResponseRecorder) *httptest.ResponseRecorder {
	t.Helper()
	select {
	case rec := <-replies:
		return rec
	case <-time.After(5 * time.Second):
		t.Fatal("the handler did not return")
		return nil
	}
}

// lastTrace returns the newest retained predict trace, every span of
// which the call must have ended.
func lastTrace(t *testing.T, rt *Router) *obs.TraceData {
	t.Helper()
	tds := rt.Tracer().Snapshot(obs.Filter{Name: "predict"})
	if len(tds) == 0 {
		t.Fatal("no retained predict trace")
	}
	for _, sp := range tds[0].Spans {
		if sp.EndNS == 0 {
			t.Fatalf("span %q was left open: %+v", sp.Name, tds[0].Spans)
		}
	}
	return tds[0]
}

// (a) The hedge fires and the primary answers first: the primary's reply
// is returned, the hedge counts as launched but not as a win, only the
// winner feeds the delay estimator, the sidecar's span ends abandoned,
// and nothing of the sidecar outlives the call.
func TestHedgeLosesToPrimary(t *testing.T) {
	a, b := newGatedBackend(t, "a", true, false), newGatedBackend(t, "b", true, false)
	rt, body := hedgeFleet(t, time.Millisecond, a, b)
	goroutines := runtime.NumGoroutine()

	replies := predictAsync(context.Background(), rt, body)
	waitFor(t, "the hedge to reach b", func() bool { return b.calls.Load() == 1 })
	a.open()
	rec := awaitReply(t, replies)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Backend") != "a" || rec.Body.String() != a.reply {
		t.Fatalf("status %d from %q: %s, want the primary's reply", rec.Code, rec.Header().Get("X-Backend"), rec.Body.String())
	}
	if h, w, n := rt.metrics.Hedges(), rt.metrics.hedgeWins.Load(), rt.backLat.Snapshot().Count; h != 1 || w != 0 || n != 1 {
		t.Fatalf("hedges=%d wins=%d estimator samples=%d, want 1/0/1", h, w, n)
	}
	td := lastTrace(t, rt)
	hi := findSpan(td, "hedge", "")
	if hi < 0 || spanAttr(&td.Spans[hi], "backend") != "b" || spanAttr(&td.Spans[hi], "outcome") != "abandoned" {
		t.Fatalf("hedge span missing or not abandoned on b: %+v", td.Spans)
	}
	if pi := findSpan(td, "proxy", ""); pi < 0 || spanAttr(&td.Spans[pi], "outcome") != "" {
		t.Fatalf("winning proxy span missing or annotated as a loser: %+v", td.Spans)
	}
	b.open()
	waitFor(t, "the sidecar and its connection to wind down", func() bool { return runtime.NumGoroutine() <= goroutines })
}

// (b) The primary fails while the timer is pending: the second candidate
// is called at once, and the timer, firing later, finds nobody left to
// hedge to.
func TestHedgeTimerFindsNoCandidateAfterFailover(t *testing.T) {
	a, b := newGatedBackend(t, "a", false, true), newGatedBackend(t, "b", true, false)
	rt, body := hedgeFleet(t, 2*time.Millisecond, a, b)

	replies := predictAsync(context.Background(), rt, body)
	waitFor(t, "the failover to reach b", func() bool { return b.calls.Load() == 1 })
	time.Sleep(20 * time.Millisecond) // let the timer fire into the open call
	b.open()
	rec := awaitReply(t, replies)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Backend") != "b" {
		t.Fatalf("status %d from %q, want the failover's reply from b", rec.Code, rec.Header().Get("X-Backend"))
	}
	if ca, cb, h := a.calls.Load(), b.calls.Load(), rt.metrics.Hedges(); ca != 1 || cb != 1 || h != 0 {
		t.Fatalf("calls a=%d b=%d hedges=%d, want one attempt each and no hedge", ca, cb, h)
	}
	td := lastTrace(t, rt)
	if findSpan(td, "hedge", "") >= 0 {
		t.Fatalf("a hedge span was opened: %+v", td.Spans)
	}
}

// (c) Primary and hedge both fail: the request answers the 502 it always
// did, nothing is counted as a win, and both attempts' spans are closed
// with their failure.
func TestHedgeAndPrimaryBothFail(t *testing.T) {
	a, b := newGatedBackend(t, "a", true, true), newGatedBackend(t, "b", false, true)
	rt, body := hedgeFleet(t, time.Millisecond, a, b)

	replies := predictAsync(context.Background(), rt, body)
	waitFor(t, "the hedge to reach b", func() bool { return b.calls.Load() == 1 })
	a.open()
	rec := awaitReply(t, replies)
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusBadGateway || eb.Error.Code != CodeBackendUnavailable {
		t.Fatalf("status %d: %s, want a typed 502 %s", rec.Code, rec.Body.String(), CodeBackendUnavailable)
	}
	if h, w, n := rt.metrics.Hedges(), rt.metrics.hedgeWins.Load(), rt.backLat.Snapshot().Count; h != 1 || w != 0 || n != 0 {
		t.Fatalf("hedges=%d wins=%d estimator samples=%d, want 1/0/0", h, w, n)
	}
	td := lastTrace(t, rt)
	for _, name := range []string{"proxy", "hedge"} {
		if i := findSpan(td, name, ""); i < 0 || td.Spans[i].Error == "" {
			t.Fatalf("%s span missing or without its failure: %+v", name, td.Spans)
		}
	}
}

// (d) The inbound context is cancelled while the primary stalls: the
// handler returns promptly and the timer, stopped with the call, hedges
// nothing.
func TestHedgeNotStartedAfterCallerLeaves(t *testing.T) {
	a, b := newGatedBackend(t, "a", true, false), newGatedBackend(t, "b", false, false)
	rt, body := hedgeFleet(t, 50*time.Millisecond, a, b)

	ctx, cancel := context.WithCancel(context.Background())
	replies := predictAsync(ctx, rt, body)
	waitFor(t, "the primary to reach a", func() bool { return a.calls.Load() == 1 })
	cancel()
	if rec := awaitReply(t, replies); rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d: %s, want the 502 of a call whose caller left", rec.Code, rec.Body.String())
	}
	time.Sleep(60 * time.Millisecond) // past the hedge delay
	if cb, h := b.calls.Load(), rt.metrics.Hedges(); cb != 0 || h != 0 {
		t.Fatalf("b saw %d calls, hedges=%d: a timer outlived its call", cb, h)
	}
	lastTrace(t, rt)
}

// (e) With the hedge armed and never due, sequential predicts start no
// sidecar and every reply is the backend's, byte for byte.
func TestHedgeArmedRepliesVerbatim(t *testing.T) {
	a, b := newGatedBackend(t, "a", false, false), newGatedBackend(t, "b", false, false)
	rt, body := hedgeFleet(t, time.Hour, a, b)
	for i := 0; i < 500; i++ {
		rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", body, nil)
		if rec.Code != http.StatusOK || rec.Body.String() != a.reply {
			t.Fatalf("predict %d: status %d body %q, want the backend's %q", i, rec.Code, rec.Body.String(), a.reply)
		}
	}
	if h := rt.metrics.Hedges(); h != 0 {
		t.Fatalf("hedges=%d, want 0", h)
	}
}

// TestConcurrentIdenticalPredictsAreIndependent: identical predicts in
// flight together share nothing. Each makes its own backend call, a
// client that hangs up takes down its own request only, and once all
// have answered no goroutine and no in-flight count is left behind.
func TestConcurrentIdenticalPredictsAreIndependent(t *testing.T) {
	a, b := newGatedBackend(t, "a", true, false), newGatedBackend(t, "b", false, false)
	rt, body := hedgeFleet(t, -1, a, b)
	goroutines := runtime.NumGoroutine()

	const clients = 8
	leaverCtx, hangUp := context.WithCancel(context.Background())
	leaver := predictAsync(leaverCtx, rt, body)
	var stayers []<-chan *httptest.ResponseRecorder
	for i := 1; i < clients; i++ {
		stayers = append(stayers, predictAsync(context.Background(), rt, body))
	}
	waitFor(t, "every predict to reach the stalled owner", func() bool { return a.calls.Load() == clients })
	hangUp()
	if rec := awaitReply(t, leaver); rec.Code != http.StatusBadGateway {
		t.Fatalf("the client that hung up was answered %d, want its own 502", rec.Code)
	}
	for i, replies := range stayers {
		if len(replies) != 0 {
			t.Fatalf("client %d was answered while the owner was still stalled: another client's hang-up reached it", i)
		}
	}
	a.open()
	for i, replies := range stayers {
		if rec := awaitReply(t, replies); rec.Code != http.StatusOK || rec.Body.String() != a.reply {
			t.Fatalf("client %d: status %d: %s, want the owner's reply", i, rec.Code, rec.Body.String())
		}
	}
	if ca, cb := a.calls.Load(), b.calls.Load(); ca != clients || cb != 0 {
		t.Fatalf("backend calls a=%d b=%d, want one call to the owner per client and none elsewhere", ca, cb)
	}
	if ia, ib, n := rt.pool.Get("a").Inflight(), rt.pool.Get("b").Inflight(), rt.metrics.inFlight.Load(); ia != 0 || ib != 0 || n != 0 {
		t.Fatalf("in-flight left behind: backend a=%d b=%d, router %d", ia, ib, n)
	}
	waitFor(t, "the calls' goroutines and connections to wind down", func() bool {
		rt.cfg.Client.CloseIdleConnections()
		return runtime.NumGoroutine() <= goroutines
	})
}
