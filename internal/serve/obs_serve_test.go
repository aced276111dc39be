package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"colocmodel/internal/obs"
)

// obsTestServer builds a server that retains every trace (negative
// SlowThreshold) and logs JSON into the returned buffer.
func obsTestServer(t testing.TB) (*Server, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, "json", 0)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{SlowThreshold: -1, TraceRing: 32, Logger: logger})
	return s, &buf
}

func predictBody() []byte {
	return []byte(`{"target":"canneal","co_apps":["cg","cg"],"pstate":1}`)
}

func TestRequestIDEchoed(t *testing.T) {
	s, logBuf := obsTestServer(t)
	h := s.Handler()

	// No client ID: the server mints one.
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody()))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	minted := w.Header().Get("X-Request-ID")
	if minted == "" {
		t.Fatal("response missing X-Request-ID")
	}

	// Client-supplied ID: adopted verbatim.
	req = httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody()))
	req.Header.Set("X-Request-ID", "client-abc")
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if got := w.Header().Get("X-Request-ID"); got != "client-abc" {
		t.Fatalf("X-Request-ID = %q, want client-abc", got)
	}

	// Both requests produced structured log lines carrying their IDs.
	ids := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec struct {
			Msg       string  `json:"msg"`
			RequestID string  `json:"request_id"`
			Endpoint  string  `json:"endpoint"`
			Status    int     `json:"status"`
			DurMS     float64 `json:"dur_ms"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %q: %v", line, err)
		}
		if rec.Endpoint != "predict" || rec.Status != 200 || rec.DurMS < 0 {
			t.Fatalf("log line fields wrong: %q", line)
		}
		ids[rec.RequestID] = true
	}
	if !ids[minted] || !ids["client-abc"] {
		t.Fatalf("log lines missing request IDs: have %v, want %q and client-abc", ids, minted)
	}
}

func TestRequestIDOnMetricsAndErrors(t *testing.T) {
	s, _ := obsTestServer(t)
	h := s.Handler()
	for _, path := range []string{"/metrics", "/healthz", "/v1/models"} {
		w := get(t, h, path)
		if w.Header().Get("X-Request-ID") == "" {
			t.Fatalf("%s: missing X-Request-ID", path)
		}
	}
	// Error responses carry the ID too.
	w := postJSON(t, h, "/v1/predict", map[string]any{"target": "nosuch"})
	if w.Code != http.StatusBadRequest || w.Header().Get("X-Request-ID") == "" {
		t.Fatalf("error response: status %d, id %q", w.Code, w.Header().Get("X-Request-ID"))
	}
}

func TestServerTimingHeader(t *testing.T) {
	s, _ := obsTestServer(t)
	h := s.Handler()
	// Every request, a repeat included, runs the same three stages and
	// no other.
	for i := 0; i < 2; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody()))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		st := w.Header().Get("Server-Timing")
		stages := obs.ParseServerTiming(st)
		for _, want := range []string{"decode", "eval", "encode"} {
			if _, ok := stages[want]; !ok {
				t.Fatalf("request %d: Server-Timing %q missing stage %s", i, st, want)
			}
		}
		if len(stages) != 3 {
			t.Fatalf("request %d: Server-Timing %q carries stages beyond decode, eval, encode", i, st)
		}
	}
}

// TestTraceEndpointSpanTree is the acceptance check: a served predict
// request leaves a retained trace in /v1/traces whose span tree covers
// decode → eval → encode with monotone timings contained in
// their parents' extents.
func TestTraceEndpointSpanTree(t *testing.T) {
	s, _ := obsTestServer(t)
	h := s.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody()))
	req.Header.Set("X-Request-ID", "trace-me")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("predict: %d", w.Code)
	}

	tw := get(t, h, "/v1/traces?endpoint=predict")
	if tw.Code != http.StatusOK {
		t.Fatalf("traces: %d: %s", tw.Code, tw.Body.String())
	}
	tr := decodeBody[obs.TracesResponse](t, tw)
	if tr.Count == 0 || len(tr.Traces) == 0 {
		t.Fatal("no retained traces")
	}
	var td *obs.TraceData
	for _, cand := range tr.Traces {
		if cand.ID == "trace-me" {
			td = cand
		}
	}
	if td == nil {
		t.Fatalf("trace for request trace-me not retained (have %d traces)", len(tr.Traces))
	}
	if td.Kind != "http" || td.Name != "predict" || td.Status != 200 || td.Error {
		t.Fatalf("trace metadata: %+v", td)
	}
	if td.Spans[0].Parent != -1 {
		t.Fatalf("root span parent = %d", td.Spans[0].Parent)
	}
	seen := map[string]bool{}
	for i, sp := range td.Spans {
		seen[sp.Name] = true
		if sp.EndNS < sp.StartNS {
			t.Fatalf("span %s not monotone: %+v", sp.Name, sp)
		}
		if sp.Parent >= 0 {
			p := td.Spans[sp.Parent]
			if sp.StartNS < p.StartNS || (p.EndNS > 0 && sp.EndNS > p.EndNS) {
				t.Fatalf("span %d (%s) [%d,%d] escapes parent %s [%d,%d]",
					i, sp.Name, sp.StartNS, sp.EndNS, p.Name, p.StartNS, p.EndNS)
			}
		}
	}
	for _, want := range []string{"decode", "eval", "encode"} {
		if !seen[want] {
			t.Fatalf("span tree missing %s: have %v", want, seen)
		}
	}
	// Pipeline stages are sequential: decode ends before eval starts,
	// eval before encode.
	byName := map[string]obs.SpanData{}
	for _, sp := range td.Spans {
		byName[sp.Name] = sp
	}
	order := []string{"decode", "eval", "encode"}
	for i := 1; i < len(order); i++ {
		prev, cur := byName[order[i-1]], byName[order[i]]
		if cur.StartNS < prev.EndNS {
			t.Fatalf("stage %s starts (%dns) before %s ends (%dns)",
				order[i], cur.StartNS, order[i-1], prev.EndNS)
		}
	}
}

func TestTracesFiltering(t *testing.T) {
	s, _ := obsTestServer(t)
	h := s.Handler()
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody()))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
	}
	get(t, h, "/healthz")

	all := decodeBody[obs.TracesResponse](t, get(t, h, "/v1/traces"))
	if all.Count < 4 {
		t.Fatalf("retained %d traces, want >= 4", all.Count)
	}
	onlyPredict := decodeBody[obs.TracesResponse](t, get(t, h, "/v1/traces?endpoint=predict"))
	for _, td := range onlyPredict.Traces {
		if td.Name != "predict" {
			t.Fatalf("endpoint filter leaked %s", td.Name)
		}
	}
	if onlyPredict.Count != 3 {
		t.Fatalf("predict traces = %d, want 3", onlyPredict.Count)
	}
	limited := decodeBody[obs.TracesResponse](t, get(t, h, "/v1/traces?limit=2"))
	if limited.Count != 2 {
		t.Fatalf("limit=2 returned %d", limited.Count)
	}
	slow := decodeBody[obs.TracesResponse](t, get(t, h, "/v1/traces?min_ms=3600000"))
	if slow.Count != 0 {
		t.Fatalf("min_ms filter returned %d", slow.Count)
	}
	if none := decodeBody[obs.TracesResponse](t, get(t, h, "/v1/traces?kind=retrain")); none.Count != 0 {
		t.Fatalf("kind filter returned %d", none.Count)
	}
	if st := all.Stats; st.Capacity != 32 || st.Retained < 4 {
		t.Fatalf("stats: %+v", st)
	}

	for _, bad := range []string{"min_ms=abc", "min_ms=-1", "limit=x", "limit=-2"} {
		if w := get(t, h, "/v1/traces?"+bad); w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, w.Code)
		}
	}
}

func TestTracesDisabled(t *testing.T) {
	s, _ := newTestServer(t, Config{TraceRing: -1})
	h := s.Handler()
	if s.Tracer() != nil {
		t.Fatal("negative TraceRing should disable the tracer")
	}
	// Requests still work, just without Server-Timing.
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody()))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("predict without tracing: %d", w.Code)
	}
	if st := w.Header().Get("Server-Timing"); st != "" {
		t.Fatalf("Server-Timing present with tracing disabled: %q", st)
	}
	if w.Header().Get("X-Request-ID") == "" {
		t.Fatal("X-Request-ID must not depend on tracing")
	}
	tw := get(t, h, "/v1/traces")
	if tw.Code != http.StatusServiceUnavailable || errCode(t, tw) != CodeTracingDisabled {
		t.Fatalf("traces with tracing disabled: %d %s", tw.Code, tw.Body.String())
	}
}

// TestSpanShippingGatedBySlowThreshold: a sampled caller gets the span
// tree back only when the request crossed the backend's slow threshold
// — the bar every trace ring retains at. Fast requests carry just the
// trace ID, keeping the encode cost off the hot path.
func TestSpanShippingGatedBySlowThreshold(t *testing.T) {
	tp := obs.NewTraceContext().Header()
	for _, tc := range []struct {
		name      string
		threshold time.Duration
		want      bool
	}{
		{"retain-all ships", -1, true},
		{"fast request skips", time.Hour, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestServer(t, Config{SlowThreshold: tc.threshold, TraceRing: 8})
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody()))
			req.Header.Set(obs.TraceparentHeader, tp)
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
			got := w.Header().Get(obs.TraceSpansHeader) != ""
			if got != tc.want {
				t.Fatalf("X-Trace-Spans shipped = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSlowRetentionThreshold(t *testing.T) {
	// With a huge slow threshold, clean fast requests are not retained —
	// but failed ones are.
	s, _ := newTestServer(t, Config{SlowThreshold: time.Hour, TraceRing: 8})
	h := s.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(predictBody()))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	postJSON(t, h, "/v1/predict", map[string]any{"target": "nosuch"})

	tr := decodeBody[obs.TracesResponse](t, get(t, h, "/v1/traces"))
	if tr.Count != 1 || !tr.Traces[0].Error || tr.Traces[0].Status != http.StatusBadRequest {
		t.Fatalf("retained %d traces (%+v), want only the failed request", tr.Count, tr.Traces)
	}
	if tr.Stats.Seen < 2 {
		t.Fatalf("seen %d, want >= 2", tr.Stats.Seen)
	}
}

func TestSlowRequestLoggedAtWarn(t *testing.T) {
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, "json", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Negative threshold: everything counts as slow.
	s, _ := newTestServer(t, Config{SlowThreshold: -1, Logger: logger})
	h := s.Handler()
	get(t, h, "/healthz")
	var rec struct {
		Level string `json:"level"`
		Msg   string `json:"msg"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log: %v (%q)", err, buf.String())
	}
	if rec.Level != "WARN" || rec.Msg != "slow request" {
		t.Fatalf("slow request logged as %s %q", rec.Level, rec.Msg)
	}
}

func TestServerErrorLoggedAtError(t *testing.T) {
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, "json", 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry() // empty: healthz is 503
	s := New(reg, Config{Logger: logger})
	get(t, s.Handler(), "/healthz")
	var rec struct {
		Level  string `json:"level"`
		Msg    string `json:"msg"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log: %v (%q)", err, buf.String())
	}
	if rec.Level != "ERROR" || rec.Msg != "request failed" || rec.Status != 503 {
		t.Fatalf("5xx logged as %s %q status %d", rec.Level, rec.Msg, rec.Status)
	}
}

func TestHealthzVerbose(t *testing.T) {
	s, _ := obsTestServer(t)
	h := s.Handler()

	// Base contract unchanged.
	base := decodeBody[HealthResponse](t, get(t, h, "/healthz"))
	if base.Status != "ok" || base.Models != 1 {
		t.Fatalf("base healthz: %+v", base)
	}
	if base.UptimeSeconds != 0 || base.Generations != nil || base.GoVersion != "" {
		t.Fatalf("base healthz leaked verbose fields: %+v", base)
	}

	v := decodeBody[HealthResponse](t, get(t, h, "/healthz?verbose=1"))
	if v.UptimeSeconds <= 0 {
		t.Fatalf("verbose uptime = %v", v.UptimeSeconds)
	}
	if len(v.Generations) != 1 {
		t.Fatalf("verbose generations = %v", v.Generations)
	}
	if _, ok := v.Generations["primary"]; !ok {
		t.Fatalf("generations missing primary: %v", v.Generations)
	}
	if v.GoVersion == "" {
		t.Fatal("verbose build info missing go version")
	}
	if !v.Tracing {
		t.Fatal("verbose should report tracing on")
	}
	if v.Adaptation {
		t.Fatal("adaptation not enabled, should be false")
	}
	// verbose=0 / false behave as base.
	for _, q := range []string{"?verbose=0", "?verbose=false"} {
		b := decodeBody[HealthResponse](t, get(t, h, "/healthz"+q))
		if b.UptimeSeconds != 0 {
			t.Fatalf("%s treated as verbose", q)
		}
	}
}

func TestPprofOptIn(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if w := get(t, s.Handler(), "/debug/pprof/cmdline"); w.Code != http.StatusNotFound {
		t.Fatalf("pprof exposed without opt-in: %d", w.Code)
	}

	s2, _ := newTestServer(t, Config{})
	s2.EnablePprof()
	h := s2.Handler()
	if w := get(t, h, "/debug/pprof/cmdline"); w.Code != http.StatusOK {
		t.Fatalf("pprof cmdline: %d", w.Code)
	}
	w := get(t, h, "/debug/pprof/")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "goroutine") {
		t.Fatalf("pprof index: %d", w.Code)
	}
}

func TestBatchFanoutSpans(t *testing.T) {
	s, _ := obsTestServer(t)
	h := s.Handler()
	body := map[string]any{
		"scenarios": []map[string]any{
			{"target": "canneal", "co_apps": []string{"cg"}, "pstate": 0},
			{"target": "cg", "co_apps": []string{"ep"}, "pstate": 1},
			{"target": "ep", "co_apps": []string{"cg", "cg"}, "pstate": 0},
		},
	}
	if w := postJSON(t, h, "/v1/predict/batch", body); w.Code != http.StatusOK {
		t.Fatalf("batch: %d: %s", w.Code, w.Body.String())
	}
	tr := decodeBody[obs.TracesResponse](t, get(t, h, "/v1/traces?endpoint=predict_batch"))
	if tr.Count != 1 {
		t.Fatalf("batch traces = %d", tr.Count)
	}
	td := tr.Traces[0]
	var fanIdx int = -1
	evals := 0
	var evalScenarios string
	for i, sp := range td.Spans {
		if sp.Name == "fanout" {
			fanIdx = i
		}
	}
	if fanIdx < 0 {
		t.Fatal("no fanout span")
	}
	for _, sp := range td.Spans {
		if sp.Name == "eval" {
			evals++
			if sp.Parent == 0 {
				t.Fatal("batch eval span should not parent to the root")
			}
			for _, a := range sp.Attrs {
				if a.Key == "scenarios" {
					evalScenarios = a.Value
				}
			}
		}
	}
	// The batch path evaluates all valid slots in ONE batched model
	// call, so a batch of three scenarios produces a single eval span
	// covering all three slots.
	if evals != 1 {
		t.Fatalf("eval spans = %d, want 1 (one batched call)", evals)
	}
	if evalScenarios != "3" {
		t.Fatalf("eval scenarios attr = %q, want 3", evalScenarios)
	}
	var slots string
	for _, a := range td.Spans[fanIdx].Attrs {
		if a.Key == "slots" {
			slots = a.Value
		}
	}
	if slots != "3" {
		t.Fatalf("fanout slots attr = %q", slots)
	}
}

// TestLogFormatsEndToEnd drives a text-format logger through the server
// to cover the -log-format text path.
func TestLogFormatsEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, "text", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{Logger: logger})
	get(t, s.Handler(), "/healthz")
	if !strings.Contains(buf.String(), "endpoint=healthz") {
		t.Fatalf("text log: %q", buf.String())
	}
}
