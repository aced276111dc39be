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

	"colocmodel/internal/serve"
)

// gatedBackend is a coloserve stand-in whose predict endpoint is stepped
// by the test: each call is counted on arrival, then waits for the gate
// (when one is set) or for its caller to hang up, then answers reply.
// Probes always answer healthy.
type gatedBackend struct {
	name  string
	ts    *httptest.Server
	calls atomic.Int64
	gate  chan struct{} // nil: answer at once
	once  sync.Once
	reply string
}

// open lets every call waiting at the gate, and every later one, through.
func (gb *gatedBackend) open() { gb.once.Do(func() { close(gb.gate) }) }

func newGatedBackend(t *testing.T, name string, gated bool) *gatedBackend {
	t.Helper()
	gb := &gatedBackend{name: name,
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
		io.WriteString(w, gb.reply)
	})
	gb.ts = httptest.NewServer(mux)
	t.Cleanup(gb.ts.Close)
	if gated {
		t.Cleanup(gb.open) // a failed test must not leave Close waiting on a gated call
	}
	return gb
}

// gatedFleet joins a and b behind a router and returns a predict body.
// With neither loaded, a is the first candidate.
func gatedFleet(t *testing.T, a, b *gatedBackend) (*Router, string) {
	t.Helper()
	rt := New(Config{Replicas: 2})
	for _, gb := range []*gatedBackend{a, b} {
		if err := rt.Pool().Add(gb.name, gb.ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	rt.pool.ProbeAll(context.Background())
	return rt, predictBody(testScenario)
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

// TestStalledBackendConfinedToItsRequests: a stalled replica holds only
// the requests it already has. The first predict lands on a, first by
// name, and is held there; a's in-flight count sends every later predict
// to b, which answers all of them while a is still held, and a sees no
// second call. Once a's gate opens, the held predict completes with a's
// reply.
func TestStalledBackendConfinedToItsRequests(t *testing.T) {
	a, b := newGatedBackend(t, "a", true), newGatedBackend(t, "b", false)
	rt, body := gatedFleet(t, a, b)

	held := predictAsync(context.Background(), rt, body)
	waitFor(t, "the first predict to reach a", func() bool { return a.calls.Load() == 1 })
	const more = 20
	for i := 0; i < more; i++ {
		rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", body, nil)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Backend") != "b" || rec.Body.String() != b.reply {
			t.Fatalf("predict %d: status %d from %q: %s, want b's reply", i, rec.Code, rec.Header().Get("X-Backend"), rec.Body.String())
		}
	}
	if ca, cb := a.calls.Load(), b.calls.Load(); ca != 1 || cb != more {
		t.Fatalf("backend calls a=%d b=%d, want 1 and %d: the stalled replica drew more work", ca, cb, more)
	}
	if len(held) != 0 {
		t.Fatal("the held predict was answered before a's gate opened")
	}
	a.open()
	if rec := awaitReply(t, held); rec.Code != http.StatusOK || rec.Header().Get("X-Backend") != "a" || rec.Body.String() != a.reply {
		t.Fatalf("held predict: status %d from %q: %s, want a's reply", rec.Code, rec.Header().Get("X-Backend"), rec.Body.String())
	}
}

// TestConcurrentIdenticalPredictsAreIndependent: identical predicts in
// flight together share nothing. Each makes its own backend call, spread
// over both backends by load, a client that hangs up takes down its own
// request only, and once all have answered no goroutine and no in-flight
// count is left behind.
func TestConcurrentIdenticalPredictsAreIndependent(t *testing.T) {
	a, b := newGatedBackend(t, "a", true), newGatedBackend(t, "b", true)
	rt, body := gatedFleet(t, a, b)
	goroutines := runtime.NumGoroutine()
	calls := func() int64 { return a.calls.Load() + b.calls.Load() }

	const clients = 8
	leaverCtx, hangUp := context.WithCancel(context.Background())
	leaver := predictAsync(leaverCtx, rt, body)
	waitFor(t, "the first predict to reach a backend", func() bool { return calls() == 1 })
	var stayers []<-chan *httptest.ResponseRecorder
	for i := 1; i < clients; i++ {
		stayers = append(stayers, predictAsync(context.Background(), rt, body))
	}
	waitFor(t, "every predict to reach a stalled backend", func() bool { return calls() == clients })
	hangUp()
	if rec := awaitReply(t, leaver); rec.Code != http.StatusBadGateway {
		t.Fatalf("the client that hung up was answered %d, want its own 502", rec.Code)
	}
	for i, replies := range stayers {
		if len(replies) != 0 {
			t.Fatalf("client %d was answered while its backend was still stalled: another client's hang-up reached it", i)
		}
	}
	a.open()
	b.open()
	for i, replies := range stayers {
		rec := awaitReply(t, replies)
		if want := map[string]string{"a": a.reply, "b": b.reply}[rec.Header().Get("X-Backend")]; rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("client %d: status %d from %q: %s, want that backend's reply", i, rec.Code, rec.Header().Get("X-Backend"), rec.Body.String())
		}
	}
	if ca, cb := a.calls.Load(), b.calls.Load(); ca+cb != clients || ca == 0 || cb == 0 {
		t.Fatalf("backend calls a=%d b=%d, want one call per client, spread over both", ca, cb)
	}
	if ia, ib, n := rt.pool.Get("a").Inflight(), rt.pool.Get("b").Inflight(), rt.metrics.inFlight.Load(); ia != 0 || ib != 0 || n != 0 {
		t.Fatalf("in-flight left behind: backend a=%d b=%d, router %d", ia, ib, n)
	}
	waitFor(t, "the calls' goroutines and connections to wind down", func() bool {
		rt.pool.closeIdle()
		return runtime.NumGoroutine() <= goroutines
	})
}
