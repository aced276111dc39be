package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"colocmodel/internal/serve"
)

// TestNonJSONBackendReplyIsReplayed: a backend-side plain-text reply
// (net/http's own 400/404/413/431, or any intermediary's) reaches the
// client with its body and Content-Type; it used to arrive as the bare
// status labelled application/json, the diagnostic gone.
func TestNonJSONBackendReplyIsReplayed(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{"status":"ok"}`) })
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{}`) })
	refuse := func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "upstream proxy says no", http.StatusBadRequest)
	}
	mux.HandleFunc("POST /v1/predict", refuse)
	mux.HandleFunc("GET /v1/models", refuse)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	rt := New(Config{Replicas: 1})
	if err := rt.Pool().Add("a", ts.URL); err != nil {
		t.Fatal(err)
	}
	rt.pool.ProbeAll(context.Background())

	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/predict", `{"target":"cg","co_apps":["ep"],"pstate":0}`},
		{http.MethodGet, "/v1/models", ""},
	} {
		rec := doReq(t, rt.Handler(), tc.method, tc.path, tc.body, nil)
		if rec.Code != http.StatusBadRequest || rec.Body.String() != "upstream proxy says no\n" {
			t.Errorf("%s: status %d body %q, want the backend's 400 and text", tc.path, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
			t.Errorf("%s: Content-Type %q, want the backend's text/plain", tc.path, ct)
		}
	}
}

// fuzzCorpus reads the committed seed corpus of one of serve's fuzzers.
func fuzzCorpus(t *testing.T, fuzzer string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "serve", "testdata", "fuzz", fuzzer, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus for %s: %v", fuzzer, err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// TestPredictDecodeAgreesWithEncodingJSON: whichever of the two readers
// decodes a predict body — serve's scanner or the encoding/json
// fallback — the router reads the same request, whose model name its
// generation floor is kept under, and answers a malformed body with the
// same 400.
func TestPredictDecodeAgreesWithEncodingJSON(t *testing.T) {
	bodies := fuzzCorpus(t, "FuzzPredictDecode")
	for _, b := range []string{
		`{"target":"cg","co_apps":["ep"],"pstate":1,"bogus":{"x":[1,2]}}`, // unknown field
		`{"target":"cg","target":"ep","co_apps":["mg"],"co_apps":["ep"]}`, // duplicate keys: last wins
		`{"target":"cg","co_apps":["ep","\"q\""],"model":"m\\n"}`,         // escapes
		`{"model":"demo","target":"cg","co_apps":null,"pstate":2}`,        // null co-apps
		`{"target":"cg","co_apps":["ep"],"pstate":0} trailing`,            // trailing data
		`{"target":"cg","co_apps":["ep"],"pstate":0}{}`,
		`{"model":"demo","target":"canneal","co_apps":["ep","cg","cg"],"pstate":3}`,
		" {\"pstate\" : 7 , \"co_apps\" : [ ] , \"target\" : \"mg\" }\r\n",
	} {
		bodies = append(bodies, []byte(b))
	}
	rt := New(Config{})
	scanned := 0
	for _, raw := range bodies {
		var want serve.PredictRequest
		wantErr := json.Unmarshal(raw, &want)
		got, gotErr := decodePredict(raw)
		if serve.ScanPredictRequest(raw, new(serve.PredictRequest)) {
			scanned++
		}
		if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("body %q: router decode error %v, encoding/json %v", raw, gotErr, wantErr)
		}
		if wantErr != nil {
			rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", string(raw), nil)
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("body %q: 400 body %q: %v", raw, rec.Body.String(), err)
			}
			if want := "decoding request body: " + wantErr.Error(); rec.Code != http.StatusBadRequest || eb.Error.Message != want {
				t.Fatalf("body %q: status %d message %q, want 400 %q", raw, rec.Code, eb.Error.Message, want)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: router decoded %#v, encoding/json %#v", raw, got, want)
		}
	}
	// Both readers must have had their share, or the table tests nothing.
	if scanned < 8 || scanned > len(bodies)-8 {
		t.Fatalf("the scanner took %d of %d bodies: the table no longer covers both readers", scanned, len(bodies))
	}
}

// TestSendBuildsTheRequestNewRequestWould: send assembles its request
// from what the backend resolved at join; on the wire it must be the
// request http.NewRequestWithContext built from Base+path — request
// line, Host, Content-Length, headers — whatever the base URL's shape.
func TestSendBuildsTheRequestNewRequestWould(t *testing.T) {
	type seen struct {
		requestURI, host, contentType, reqID, tp, body string
		length                                         int64
	}
	arrived := make(chan seen, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		arrived <- seen{r.RequestURI, r.Host, r.Header.Get("Content-Type"), r.Header.Get("X-Request-ID"),
			r.Header.Get("Traceparent"), string(body), r.ContentLength}
	}))
	t.Cleanup(ts.Close)
	tp := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	for _, suffix := range []string{"", "/", "/pre/fix", "/a%2Fb", "/sp%20ace/"} {
		for _, call := range []struct {
			method, path string
			body         []byte
			tp           string
		}{
			{http.MethodPost, "/v1/predict", []byte(`{"target":"cg"}`), tp},
			{http.MethodPost, "/v1/models/reload", nil, ""},
			{http.MethodGet, "/v1/models", nil, tp},
		} {
			rt := New(Config{})
			if err := rt.Pool().Add("a", ts.URL+suffix); err != nil {
				t.Fatal(err)
			}
			b := rt.pool.Get("a")
			if pr := rt.proxy(context.Background(), b, call.method, call.path, call.body, "req-1", call.tp); pr.err != nil {
				t.Fatal(pr.err)
			}
			got := <-arrived

			var rd io.Reader
			if call.body != nil {
				rd = strings.NewReader(string(call.body))
			}
			req, err := http.NewRequest(call.method, b.Base+call.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Request-ID", "req-1")
			if call.tp != "" {
				req.Header.Set("Traceparent", call.tp)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if want := <-arrived; got != want {
				t.Errorf("base %q %s %s: send put %+v on the wire, http.NewRequest %+v", b.Base, call.method, call.path, got, want)
			}
		}
	}
}

// TestAddResolvesBaseAtJoin: a base URL that does not parse is refused
// at join, not discovered by the first request, and one that does is
// resolved to the host http.NewRequest would address.
func TestAddResolvesBaseAtJoin(t *testing.T) {
	for i, base := range []string{"http://example.com:", "http://[::1]:", "http://[::1]", "https://example.com:8443/pre"} {
		rt := New(Config{})
		name := strconv.Itoa(i)
		if err := rt.Pool().Add(name, base); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodGet, base+"/v1/models", nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := rt.pool.Get(name).url; got.Host != req.Host || got.Scheme != req.URL.Scheme {
			t.Errorf("base %q resolved to %s://%s, http.NewRequest addresses %s://%s", base, got.Scheme, got.Host, req.URL.Scheme, req.Host)
		}
	}
	rt := New(Config{})
	for _, base := range []string{"127.0.0.1:8080", "http://[::1", "http://a b/"} {
		if err := rt.Pool().Add("x", base); err == nil {
			t.Errorf("Add accepted %q", base)
		}
	}
	if got := rt.Pool().Backends(); len(got) != 0 {
		t.Fatalf("a refused backend joined the pool: %v", got)
	}
}
