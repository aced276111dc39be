package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countDials counts the connections the pool dials from here on.
func countDials(p *Pool) *atomic.Int64 {
	var n atomic.Int64
	dial := p.dial
	p.dial = func(ctx context.Context, deadline time.Time, addr string) (net.Conn, error) {
		n.Add(1)
		return dial(ctx, deadline, addr)
	}
	return &n
}

// idleReusable counts b's idle connections that pass the reuse check.
func idleReusable(b *Backend) (n int) {
	b.idleMu.Lock()
	defer b.idleMu.Unlock()
	for _, bc := range b.idle {
		if bc.reusable() {
			n++
		}
	}
	return n
}

func idleCount(b *Backend) int {
	b.idleMu.Lock()
	defer b.idleMu.Unlock()
	return len(b.idle)
}

// TestConcurrentPoolRedialsAfterBackendClosedIdle: a backend that closes
// its idle keep-alive connections between two calls (a drain, a
// restart) costs the next call nothing but a dial. The second predict
// and the second observation each reach the backend once, are answered
// 200 and charge it no error; a call after one that left its connection
// open reuses it.
func TestConcurrentPoolRedialsAfterBackendClosedIdle(t *testing.T) {
	sb := newScriptedBackend(t, "a", 1)
	rt := newScriptedRouter(t, Config{Replicas: 1}, sb)
	dials := countDials(rt.pool)
	b := rt.pool.Get("a")
	for _, c := range []struct{ name, path, body string }{
		{"predict", "/v1/predict", predictBody(testScenario)},
		{"observation", "/v1/observations", obsBody(testScenario.Target, 2)},
	} {
		for round := 0; round < 2; round++ {
			hits, dialled := sb.hits.Load(), dials.Load()
			rec := doReq(t, rt.Handler(), http.MethodPost, c.path, c.body, nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %d: status %d: %s", c.name, round, rec.Code, rec.Body.String())
			}
			if got := sb.hits.Load() - hits; got != 1 {
				t.Fatalf("%s %d: %d backend calls, want 1", c.name, round, got)
			}
			// Only the first call of all and each call after the close dial.
			wantDial := int64(0)
			if round == 1 || c.name == "predict" {
				wantDial = 1
			}
			if got := dials.Load() - dialled; got != wantDial {
				t.Fatalf("%s %d: %d dials, want %d", c.name, round, got, wantDial)
			}
			if round == 0 {
				sb.ts.CloseClientConnections()
				waitFor(t, "the backend's close to reach the router's side", func() bool { return idleReusable(b) == 0 })
			}
		}
	}
	if r, e := b.metrics.requests.Load(), b.metrics.errors.Load(); r != 4 || e != 0 {
		t.Fatalf("backend counted requests=%d errors=%d, want 4/0", r, e)
	}
}

// hangUpWriter is a client that hangs up once the first bytes of the
// reply body reach it: it cancels the request, as net/http's server
// does for a client that went away, and fails every later write.
type hangUpWriter struct {
	*httptest.ResponseRecorder
	hangUp context.CancelFunc
	wrote  bool
}

func (w *hangUpWriter) Write(p []byte) (int, error) {
	if w.wrote {
		return 0, errors.New("client hung up")
	}
	w.wrote = true
	n, err := w.ResponseRecorder.Write(p)
	w.hangUp()
	return n, err
}

func awaitSignal(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestConcurrentPoolDropsUnfinishedConns: a connection goes back to the
// pool only after a reply read to its end that did not ask to close it.
// A reply with Connection: close is not reused, nor one refused before
// its body arrived, nor a placements stream whose client hung up
// mid-body; the call after each dials a new connection, and the backend
// of each unfinished reply sees its connection closed.
func TestConcurrentPoolDropsUnfinishedConns(t *testing.T) {
	streamGone, refusedGone := make(chan struct{}, 1), make(chan struct{}, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{"status":"ok"}`) })
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{}`) })
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{"models":[]}`) })
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		io.WriteString(w, `{"model":"demo","generation":1}`)
	})
	mux.HandleFunc("POST /v1/predict/batch", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Length", "67108865") // over the reply bound: refused unread
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
		refusedGone <- struct{}{}
	})
	mux.HandleFunc("POST /v1/placements", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"final":false,"plan":{"objective":2.5}}`+"\n")
		w.(http.Flusher).Flush()
		<-r.Context().Done() // the router closed the connection
		streamGone <- struct{}{}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	rt := New(Config{Replicas: 1})
	if err := rt.Pool().Add("a", ts.URL); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.pool.closeIdle) // before ts.Close, which waits for the handlers a failure leaves blocked
	rt.pool.ProbeAll(context.Background())
	dials := countDials(rt.pool)
	b := rt.pool.Get("a")

	models := func(wantDials int64) {
		t.Helper()
		if rec := doReq(t, rt.Handler(), http.MethodGet, "/v1/models", "", nil); rec.Code != http.StatusOK {
			t.Fatalf("models: status %d: %s", rec.Code, rec.Body.String())
		}
		if got := dials.Load(); got != wantDials {
			t.Fatalf("%d dials, want %d", got, wantDials)
		}
		if got := idleCount(b); got != 1 {
			t.Fatalf("%d idle connections after a reply read to its end, want 1", got)
		}
	}
	models(1)
	models(1)

	if rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", predictBody(testScenario), nil); rec.Code != http.StatusOK {
		t.Fatalf("predict: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := idleCount(b); got != 0 {
		t.Fatalf("a Connection: close reply left %d idle connections, want 0", got)
	}
	models(2)

	// A reply refused before its body arrived has nothing unread yet on
	// the connection, which must still not carry another call.
	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict/batch", batchBody("cg"), nil)
	if want := errorReply(CodeBackendUnavailable, "all candidates failed: reply body exceeds 67108864 bytes"); rec.Code != http.StatusBadGateway || rec.Body.String() != want {
		t.Fatalf("batch: %d %q, want 502 %q", rec.Code, rec.Body.String(), want)
	}
	if got := idleCount(b); got != 0 {
		t.Fatalf("a reply refused unread left %d idle connections, want 0", got)
	}
	awaitSignal(t, refusedGone, "the backend to see the refused reply's connection close")
	models(3)

	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	w := &hangUpWriter{ResponseRecorder: httptest.NewRecorder(), hangUp: hangUp}
	req := httptest.NewRequest(http.MethodPost, "/v1/placements", strings.NewReader(`{"stream":true}`)).WithContext(ctx)
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"final":false`) {
		t.Fatalf("placements: status %d body %q, want the stream's first line", w.Code, w.Body.String())
	}
	if got := idleCount(b); got != 0 {
		t.Fatalf("a stream dropped mid-body left %d idle connections, want 0", got)
	}
	awaitSignal(t, streamGone, "the backend to see the dropped stream's connection close")
	models(4)
	if e := b.metrics.errors.Load(); e != 1 || b.Inflight() != 0 {
		t.Fatalf("backend counted %d errors, %d in flight; want the refused reply's 1 and 0", e, b.Inflight())
	}
}

// TestConcurrentHangUpMidReadFreesConn: a client that hangs up while its
// backend has not answered gets its 502, frees its connection (it is
// closed, not pooled) and charges the backend no error.
func TestConcurrentHangUpMidReadFreesConn(t *testing.T) {
	a := newGatedBackend(t, "a", true)
	rt := New(Config{Replicas: 1})
	if err := rt.Pool().Add("a", a.ts.URL); err != nil {
		t.Fatal(err)
	}
	rt.pool.ProbeAll(context.Background())
	dials := countDials(rt.pool)
	b := rt.pool.Get("a")

	ctx, hangUp := context.WithCancel(context.Background())
	replies := predictAsync(ctx, rt, predictBody(testScenario))
	waitFor(t, "the predict to reach the backend", func() bool { return a.calls.Load() == 1 })
	hangUp()
	if rec := awaitReply(t, replies); rec.Code != http.StatusBadGateway {
		t.Fatalf("the client that hung up was answered %d, want 502", rec.Code)
	}
	if r, e := b.metrics.requests.Load(), b.metrics.errors.Load(); r != 1 || e != 0 {
		t.Fatalf("backend counted requests=%d errors=%d, want 1/0", r, e)
	}
	if n, in := idleCount(b), b.Inflight(); n != 0 || in != 0 {
		t.Fatalf("%d idle connections, %d in flight after the hang-up; want 0 and 0", n, in)
	}
	a.open()
	if rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", predictBody(testScenario), nil); rec.Code != http.StatusOK || rec.Body.String() != a.reply {
		t.Fatalf("next predict: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("%d dials, want 2: the next call must not find the abandoned connection pooled", got)
	}
}

// TestConcurrentPoolKeepsEachBackendsReplies: 16 callers against 3
// backends, each caller's context live (so every call registers its
// hang-up hook): every reply is the one its X-Backend names, every
// in-flight count returns to zero, and a backend's idle list never
// holds more than its cap however many connections come back to it.
func TestConcurrentPoolKeepsEachBackendsReplies(t *testing.T) {
	gbs := []*gatedBackend{newGatedBackend(t, "a", false), newGatedBackend(t, "b", false), newGatedBackend(t, "c", false)}
	rt := New(Config{Replicas: 2})
	replies := map[string]string{}
	for _, gb := range gbs {
		if err := rt.Pool().Add(gb.name, gb.ts.URL); err != nil {
			t.Fatal(err)
		}
		replies[gb.name] = gb.reply
	}
	rt.pool.ProbeAll(context.Background())
	const callers, calls = 16, 40
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			for j := 0; j < calls; j++ {
				rec := httptest.NewRecorder()
				rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict",
					strings.NewReader(predictBody(testScenario))).WithContext(ctx))
				if want, ok := replies[rec.Header().Get("X-Backend")]; rec.Code != http.StatusOK || !ok || rec.Body.String() != want {
					t.Errorf("status %d from %q: %s, want that backend's reply", rec.Code, rec.Header().Get("X-Backend"), rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	var served int64
	for _, gb := range gbs {
		b := rt.pool.Get(gb.name)
		served += gb.calls.Load()
		if in, n := b.Inflight(), idleCount(b); in != 0 || n > callers {
			t.Errorf("backend %s: %d in flight, %d idle; want 0 and at most one per caller", gb.name, in, n)
		}
	}
	if served != callers*calls || rt.metrics.inFlight.Load() != 0 {
		t.Fatalf("backends served %d calls, router holds %d in flight; want %d and 0", served, rt.metrics.inFlight.Load(), callers*calls)
	}

	// Return more connections than the cap from 16 goroutines at once:
	// the cap holds and every one past it is closed.
	b := rt.pool.Get("a")
	rt.pool.closeIdle()
	const each = (maxIdlePerBackend + callers*2) / callers
	var closed atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				c, peer := net.Pipe()
				go func() {
					_, _ = io.Copy(io.Discard, peer) // returns once c is closed
					closed.Add(1)
				}()
				ex := exchange{b: b, bc: newBackendConn(c, c), resp: &http.Response{}}
				ex.bc.body.eof = true
				ex.done()
			}
		}()
	}
	wg.Wait()
	if got := idleCount(b); got != maxIdlePerBackend {
		t.Fatalf("%d idle connections, want the cap of %d", got, maxIdlePerBackend)
	}
	waitFor(t, "every connection past the cap to close", func() bool { return closed.Load() == callers*each-maxIdlePerBackend })
	rt.pool.closeIdle()
	waitFor(t, "the idle connections to close", func() bool { return closed.Load() == callers*each })
}

// TestHTTPSBackendOverTLS: an https base is reached over TLS under the
// TLSClientConfig of Config.Client's transport, its connection reused
// like any other; an https base whose server speaks plain HTTP is the
// 502 whose text is http.Client.Do's.
func TestHTTPSBackendOverTLS(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{"status":"ok"}`) })
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{}`) })
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"model":"demo","generation":1,"tls":%t}`, r.TLS != nil)
	})
	ts := httptest.NewTLSServer(mux)
	t.Cleanup(ts.Close)
	rt := New(Config{Replicas: 1, Client: ts.Client()})
	if err := rt.Pool().Add("a", ts.URL); err != nil {
		t.Fatal(err)
	}
	rt.pool.ProbeAll(context.Background())
	dials := countDials(rt.pool)
	for i := 0; i < 2; i++ {
		rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", predictBody(testScenario), nil)
		if rec.Code != http.StatusOK || rec.Body.String() != `{"model":"demo","generation":1,"tls":true}` {
			t.Fatalf("predict %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d dials for two calls, want one connection reused", got)
	}

	plain := httptest.NewServer(mux)
	t.Cleanup(plain.Close)
	base := strings.Replace(plain.URL, "http://", "https://", 1)
	rt = New(Config{Replicas: 1})
	if err := rt.Pool().Add("plain", base); err != nil {
		t.Fatal(err)
	}
	body := predictBody(testScenario)
	req, err := http.NewRequest(http.MethodPost, base+"/v1/predict", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	_, doErr := http.DefaultClient.Do(req)
	if doErr == nil || !errors.Is(doErr, http.ErrSchemeMismatch) {
		t.Fatalf("http.Client.Do returned %v, want the scheme mismatch", doErr)
	}
	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", body, nil)
	if want := errorReply(CodeBackendUnavailable, "all candidates failed: "+doErr.Error()); rec.Code != http.StatusBadGateway || rec.Body.String() != want {
		t.Fatalf("%d %q, want 502 %q", rec.Code, rec.Body.String(), want)
	}
}
