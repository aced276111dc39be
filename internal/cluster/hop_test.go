package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
)

// countingConn counts the writes made on one connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingClient is a client whose every connection counts its writes
// into writes.
func countingClient(writes *atomic.Int64) *http.Client {
	var d net.Dialer
	return &http.Client{Transport: &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return countingConn{c, writes}, nil
	}}}
}

// TestOneWritePerBackendCall: every backend call the router makes puts
// its request line, headers and body on the wire in one write, so the
// backend reads each request whole; a body net/http does not know is in
// memory makes it flush the headers first, a second write per call.
func TestOneWritePerBackendCall(t *testing.T) {
	var writes atomic.Int64
	var sbs []*scriptedBackend
	for _, name := range []string{"a", "b", "c"} {
		sbs = append(sbs, newScriptedBackend(t, name, 1))
	}
	rt := newScriptedRouter(t, Config{Replicas: 1, Client: countingClient(&writes)}, sbs...)
	observations := make([]string, 6)
	for i := range observations {
		observations[i] = obsBody(fmt.Sprintf("app%d", i), float64(i+1))
	}
	for _, tc := range []struct{ name, path, body string }{
		{"predict", "/v1/predict", predictBody(testScenario)},
		{"batch", "/v1/predict/batch", batchBody("cg", "ep", "mg")},
		{"observation", "/v1/observations", obsBody(testScenario.Target, 2)},
		{"observation batch", "/v1/observations", `{"observations":[` + strings.Join(observations, ",") + `]}`},
		{"placements", "/v1/placements", `{"machines":[{"name":"m0","spec":"6core","count":1}],"apps":["cg","ep"]}`},
	} {
		for _, sb := range sbs {
			sb.hits.Store(0)
		}
		writes.Store(0)
		rec := doReq(t, rt.Handler(), http.MethodPost, tc.path, tc.body, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body.String())
		}
		var calls int64
		for _, sb := range sbs {
			calls += sb.hits.Load()
		}
		if calls != 1 {
			t.Fatalf("%s: %d backend calls, want the request forwarded whole in one", tc.name, calls)
		}
		if got := writes.Load(); got != calls {
			t.Errorf("%s: %d writes for %d backend call(s), want one write per call", tc.name, got, calls)
		}
	}
}

// errorReply renders the router's error body the way writeJSON does.
func errorReply(code, message string) string {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(errorBody{Error: errorDetail{Code: code, Message: message}})
	return buf.String()
}

// TestDeadBackendErrorIsClientDos: a backend that refuses the
// connection is a 502 whose text is the error http.Client.Do renders
// for the same request, a password in the base URL masked as Client.Do
// masks it.
func TestDeadBackendErrorIsClientDos(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	addr := ts.Listener.Addr().String()
	ts.Close()
	for _, base := range []string{"http://" + addr, "http://user:secret@" + addr + "/pre"} {
		rt := New(Config{Replicas: 1})
		if err := rt.Pool().Add("dead", base); err != nil {
			t.Fatal(err)
		}
		body := `{"model":"demo","target":"cg","co_apps":["ep"],"pstate":0}`
		req, err := http.NewRequest(http.MethodPost, base+"/v1/predict", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, doErr := http.DefaultClient.Do(req)
		if doErr == nil {
			t.Fatalf("%s answered", base)
		}
		rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", body, nil)
		want := errorReply(CodeBackendUnavailable, "all candidates failed: "+doErr.Error())
		if rec.Code != http.StatusBadGateway || rec.Body.String() != want {
			t.Errorf("base %s: %d %q, want 502 %q", base, rec.Code, rec.Body.String(), want)
		}
		if prefix := fmt.Sprintf(`all candidates failed: Post \"%s/v1/predict\": `, strings.Replace(base, ":secret@", ":***@", 1)); !strings.Contains(rec.Body.String(), prefix) {
			t.Errorf("base %s: %q does not carry %q", base, rec.Body.String(), prefix)
		}
	}
}

// TestBaseURLUserInfoIsBasicAuth: a base URL's user info reaches the
// backend as the Authorization header http.Client.Do derives from it.
func TestBaseURLUserInfoIsBasicAuth(t *testing.T) {
	got := make(chan string, 2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got <- r.Header.Get("Authorization")
	}))
	t.Cleanup(ts.Close)
	base := strings.Replace(ts.URL, "http://", "http://user:p%40ss@", 1)
	rt := New(Config{})
	if err := rt.Pool().Add("a", base); err != nil {
		t.Fatal(err)
	}
	if pr := rt.proxy(context.Background(), rt.pool.Get("a"), http.MethodGet, "/v1/models", nil, "req-1", ""); pr.err != nil {
		t.Fatal(pr.err)
	}
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/models", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sent, want := <-got, <-got; sent != want || want == "" {
		t.Fatalf("Authorization %q, http.Client.Do sends %q", sent, want)
	}
}

// TestOversizedPredictBody: a predict body over the 1 MiB limit is
// refused with the typed 413, whatever length it declares and however
// its first MiB reads: a space-padded request is not judged on its
// prefix, and one cut mid-string gets no decoder's 400.
func TestOversizedPredictBody(t *testing.T) {
	sb := newScriptedBackend(t, "a", 1)
	rt := newScriptedRouter(t, Config{Replicas: 1}, sb)
	valid := `{"model":"demo","target":"cg","co_apps":["ep"],"pstate":0}`
	padded := valid + strings.Repeat(" ", 1<<20+1-len(valid))
	cut := `{"model":"demo","target":"` + strings.Repeat("a", 1<<20) + `"}`
	want := errorReply(CodeBodyTooLarge, "request body exceeds 1048576 bytes")
	for _, tc := range []struct{ name, body string }{{"padded", padded}, {"cut", cut}} {
		if len(tc.body) <= 1<<20 {
			t.Fatalf("%s: body of %d bytes is not over the limit", tc.name, len(tc.body))
		}
		for _, declared := range []bool{true, false} {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(tc.body))
			if !declared {
				req.ContentLength = -1
			}
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != want {
				t.Errorf("%s, length declared %v: %d %q, want 413 %q", tc.name, declared, rec.Code, rec.Body.String(), want)
			}
		}
	}
	if got := sb.hits.Load(); got != 0 {
		t.Fatalf("an oversized body reached the backend %d times", got)
	}
}

// TestOversizedBodiesAre413: every endpoint that forwards a body refuses
// one declared over its bound with the typed 413, before reading it.
func TestOversizedBodiesAre413(t *testing.T) {
	sb := newScriptedBackend(t, "a", 1)
	rt := newScriptedRouter(t, Config{Replicas: 1}, sb)
	for path, limit := range map[string]int64{
		"/v1/predict": 1 << 20, "/v1/predict/batch": 64 << 20, "/v1/observations": 64 << 20, "/v1/placements": 8 << 20,
	} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader("{}"))
		req.ContentLength = limit + 1
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		want := errorReply(CodeBodyTooLarge, fmt.Sprintf("request body exceeds %d bytes", limit))
		if rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != want {
			t.Errorf("%s: %d %q, want 413 %q", path, rec.Code, rec.Body.String(), want)
		}
	}
	if got := sb.hits.Load(); got != 0 {
		t.Fatalf("an oversized body reached the backend %d times", got)
	}
}

// TestShortBackendReply: a backend reply that ends before its declared
// Content-Length is a failed call, answered with the read's error.
func TestShortBackendReply(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		conn, bufrw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = bufrw.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n" +
			`{"model":"demo","generation":1`)
		_ = bufrw.Flush()
	}))
	t.Cleanup(ts.Close)
	rt := New(Config{Replicas: 1})
	if err := rt.Pool().Add("short", ts.URL); err != nil {
		t.Fatal(err)
	}
	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", `{"model":"demo","target":"cg","co_apps":["ep"],"pstate":0}`, nil)
	if want := errorReply(CodeBackendUnavailable, "all candidates failed: unexpected EOF"); rec.Code != http.StatusBadGateway || rec.Body.String() != want {
		t.Fatalf("%d %q, want 502 %q", rec.Code, rec.Body.String(), want)
	}
}

// TestOversizedBackendReply: a backend reply over the 64 MiB bound is a
// failed call, not a reply replayed truncated; one that declares such a
// length fails before a byte of it is read.
func TestOversizedBackendReply(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		conn, bufrw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = bufrw.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 67108865\r\n\r\n" +
			`{"model":"demo","generation":1}`)
		_ = bufrw.Flush()
	}))
	t.Cleanup(ts.Close)
	rt := New(Config{Replicas: 1})
	if err := rt.Pool().Add("huge", ts.URL); err != nil {
		t.Fatal(err)
	}
	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", `{"model":"demo","target":"cg","co_apps":["ep"],"pstate":0}`, nil)
	if want := errorReply(CodeBackendUnavailable, "all candidates failed: reply body exceeds 67108864 bytes"); rec.Code != http.StatusBadGateway || rec.Body.String() != want {
		t.Fatalf("%d %q, want 502 %q", rec.Code, rec.Body.String(), want)
	}
}

// TestReadSizedIsBoundedReadAll: whatever length a body declares and
// however its reader delivers it, readSized returns the bytes and the
// error io.ReadAll(io.LimitReader(r, limit+1)) returns when those are
// within limit, and refuses the body as too large when they are not or
// when it declares more than limit.
func TestReadSizedIsBoundedReadAll(t *testing.T) {
	errBroken := errors.New("connection reset")
	readers := map[string]func([]byte) io.Reader{
		"plain":         func(b []byte) io.Reader { return bytes.NewReader(b) },
		"eof with data": func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
		"one byte":      func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"half":          func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
		"broken": func(b []byte) io.Reader {
			return io.MultiReader(bytes.NewReader(b), iotest.ErrReader(errBroken))
		},
	}
	const limit = 100
	for _, size := range []int{0, 1, 50, 99, 100, 101, 300, presizeMax + 1} {
		body := bytes.Repeat([]byte("x"), size)
		for _, declared := range []int64{-1, 0, 1, 49, 50, 51, 100, 101, int64(size), presizeMax + 1} {
			for _, lim := range []int64{limit, presizeMax + 10} {
				for name, rd := range readers {
					want, wantErr := io.ReadAll(io.LimitReader(rd(body), lim+1))
					if declared > lim || int64(len(want)) > lim {
						want, wantErr = nil, bodyTooLargeError(lim)
					}
					got, gotErr := readSized(rd(body), declared, lim)
					if !bytes.Equal(got, want) || !errors.Is(gotErr, wantErr) {
						t.Fatalf("%s reader, %d bytes, declared %d, limit %d: %d bytes, %v; want %d bytes, %v",
							name, size, declared, lim, len(got), gotErr, len(want), wantErr)
					}
				}
			}
		}
	}
}
