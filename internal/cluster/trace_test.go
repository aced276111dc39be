package cluster

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"colocmodel/internal/fleetobs"
	"colocmodel/internal/obs"
)

// spanAttr returns the value of one span annotation ("" when absent).
func spanAttr(sp *obs.SpanData, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// findSpan returns the first span matching name and origin (-1 when
// absent).
func findSpan(td *obs.TraceData, name, origin string) int {
	for i := range td.Spans {
		if td.Spans[i].Name == name && td.Spans[i].Origin == origin {
			return i
		}
	}
	return -1
}

// latestPredictTrace returns the newest retained OK predict trace.
func latestPredictTrace(t *testing.T, rt *Router) *obs.TraceData {
	t.Helper()
	for _, td := range rt.Tracer().Snapshot(obs.Filter{Name: "predict"}) {
		if td.Status == http.StatusOK {
			return td
		}
	}
	t.Fatal("no retained OK predict trace")
	return nil
}

// TestStitchedTraceServedByTracesEndpoint is the end-to-end acceptance
// path: one proxied predict retains a trace whose tree holds both the
// router's own spans (route, proxy) and the winning backend's
// decode → eval → encode spans under one trace ID, served by
// GET /v1/traces.
func TestStitchedTraceServedByTracesEndpoint(t *testing.T) {
	a := newFakeBackend(t, "a")
	b := newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{Replicas: 2, HedgeAfter: -1, SlowThreshold: -1}, a, b)
	sc := scenarioOwnedBy(t, rt, "a")

	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", predictBody(sc), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict returned %d: %s", rec.Code, rec.Body.String())
	}

	rec = doReq(t, rt.Handler(), http.MethodGet, "/v1/traces?endpoint=predict", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("traces returned %d: %s", rec.Code, rec.Body.String())
	}
	var resp obs.TracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding traces response: %v", err)
	}
	var td *obs.TraceData
	for _, cand := range resp.Traces {
		if cand.Name == "predict" && cand.Status == http.StatusOK {
			td = cand
			break
		}
	}
	if td == nil {
		t.Fatalf("no retained predict trace in %d traces", resp.Count)
	}
	if len(td.TraceID) != 32 {
		t.Fatalf("trace ID %q, want 32 hex digits", td.TraceID)
	}
	if i := findSpan(td, "route", ""); i < 0 {
		t.Fatalf("router route span missing: %+v", td.Spans)
	}
	pi := findSpan(td, "proxy", "")
	if pi < 0 {
		t.Fatalf("router proxy span missing: %+v", td.Spans)
	}
	if got := spanAttr(&td.Spans[pi], "backend"); got != "a" {
		t.Fatalf("proxy span backend %q, want the owner a", got)
	}
	// The backend's remote root splices under the proxy span, carrying
	// its own stage children, all tagged with the backend's origin.
	ri := findSpan(td, "predict", "a")
	if ri < 0 {
		t.Fatalf("remote root span missing: %+v", td.Spans)
	}
	if td.Spans[ri].Parent != pi {
		t.Fatalf("remote root parent %d, want the proxy span %d", td.Spans[ri].Parent, pi)
	}
	if spanAttr(&td.Spans[ri], "remote_id") == "" {
		t.Fatal("remote root missing the remote_id annotation")
	}
	for _, stage := range []string{"decode", "eval", "encode"} {
		si := findSpan(td, stage, "a")
		if si < 0 {
			t.Fatalf("remote %s span missing: %+v", stage, td.Spans)
		}
		if td.Spans[si].Parent != ri {
			t.Fatalf("remote %s parent %d, want the remote root %d", stage, td.Spans[si].Parent, ri)
		}
	}
}

// TestStitchedTraceUnderHedge pins stitching under hedging: the
// winner's remote spans attach under its hedge span, the abandoned
// loser is annotated, and the merged Server-Timing carries the
// router-local route and hedge_wait stages in front of the backend's
// own breakdown (satellite format pin).
func TestStitchedTraceUnderHedge(t *testing.T) {
	a := newFakeBackend(t, "a")
	b := newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{Replicas: 2, HedgeAfter: 2 * time.Millisecond, SlowThreshold: -1}, a, b)
	sc := scenarioOwnedBy(t, rt, "a")

	a.stall.Store(true)
	defer close(a.gate)
	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", predictBody(sc), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged predict returned %d: %s", rec.Code, rec.Body.String())
	}

	st := rec.Header().Get("Server-Timing")
	last := -1
	for _, stage := range []string{"route;dur=", "hedge_wait;dur=", "backend;dur=", "eval;dur="} {
		i := strings.Index(st, stage)
		if i < 0 {
			t.Fatalf("Server-Timing %q missing stage %q", st, stage)
		}
		if i < last {
			t.Fatalf("Server-Timing %q: stage %q out of order", st, stage)
		}
		last = i
	}

	td := latestPredictTrace(t, rt)
	hi := findSpan(td, "hedge", "")
	if hi < 0 {
		t.Fatalf("hedge span missing: %+v", td.Spans)
	}
	if got := spanAttr(&td.Spans[hi], "backend"); got != "b" {
		t.Fatalf("hedge span backend %q, want the winner b", got)
	}
	// Winner's remote tree hangs off the hedge span.
	ri := findSpan(td, "predict", "b")
	if ri < 0 || td.Spans[ri].Parent != hi {
		t.Fatalf("winner's remote root not under the hedge span: %+v", td.Spans)
	}
	if findSpan(td, "eval", "b") < 0 {
		t.Fatalf("winner's eval span missing: %+v", td.Spans)
	}
	// Loser a: span present, annotated abandoned, no remote spans.
	pi := findSpan(td, "proxy", "")
	if pi < 0 {
		t.Fatalf("primary proxy span missing: %+v", td.Spans)
	}
	if got := spanAttr(&td.Spans[pi], "backend"); got != "a" {
		t.Fatalf("primary proxy span backend %q, want a", got)
	}
	if got := spanAttr(&td.Spans[pi], "outcome"); got != "abandoned" {
		t.Fatalf("loser outcome %q, want abandoned", got)
	}
	if findSpan(td, "eval", "a") >= 0 {
		t.Fatalf("abandoned loser must not contribute remote spans: %+v", td.Spans)
	}
}

// TestFleetMetricsEndpoint pins the aggregation surface: the router's
// GET /v1/fleet/metrics merges every backend's scrape, labels fleet
// health per backend, appends the router's own metrics and SLO gauges,
// and the whole document round-trips through the exposition parser.
func TestFleetMetricsEndpoint(t *testing.T) {
	a := newFakeBackend(t, "a")
	b := newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{Replicas: 2, HedgeAfter: -1}, a, b)
	sc := scenarioOwnedBy(t, rt, "a")

	if rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", predictBody(sc), nil); rec.Code != http.StatusOK {
		t.Fatalf("predict returned %d", rec.Code)
	}
	rec := doReq(t, rt.Handler(), http.MethodGet, "/v1/fleet/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("fleet metrics returned %d: %s", rec.Code, rec.Body.String())
	}
	text := rec.Body.String()
	for _, want := range []string{
		`coloserve_requests_total{endpoint="predict"} 1`, // summed across the fleet (a=1, b=0)
		`coloserve_in_flight_requests{backend="a"}`,      // gauges re-labelled, not summed
		`colorouter_fleet_backend_up{backend="a"} 1`,
		`colorouter_fleet_backend_up{backend="b"} 1`,
		`colorouter_fleet_backend_error_rate{backend="a"}`,
		`colorouter_requests_total{endpoint="predict"} 1`,
		`colorouter_slo_objective 0.999`,
		`colorouter_slo_state 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("fleet metrics missing %q:\n%s", want, text)
		}
	}
	if _, err := fleetobs.Parse(strings.NewReader(text)); err != nil {
		t.Fatalf("fleet document does not round-trip through the parser: %v", err)
	}
}

// TestRouterSLOEndpoint pins the router's SLO verdict surface and its
// disabled form.
func TestRouterSLOEndpoint(t *testing.T) {
	a := newFakeBackend(t, "a")
	rt := newTestRouter(t, Config{Replicas: 1, HedgeAfter: -1}, a)
	sc := scenarioOwnedBy(t, rt, "a")
	if rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", predictBody(sc), nil); rec.Code != http.StatusOK {
		t.Fatalf("predict returned %d", rec.Code)
	}
	rec := doReq(t, rt.Handler(), http.MethodGet, "/v1/slo", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("slo returned %d: %s", rec.Code, rec.Body.String())
	}
	var st obs.SLOStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding SLO status: %v", err)
	}
	if st.State != "ok" || st.Objective != 0.999 {
		t.Fatalf("SLO status %+v, want ok at the default objective", st)
	}
	if st.Short.Good != 1 || st.Short.Bad != 0 {
		t.Fatalf("short window %+v, want 1 good observation", st.Short)
	}

	off := newTestRouter(t, Config{Replicas: 1, HedgeAfter: -1, SLOObjective: -1, TraceRing: -1}, a)
	if rec := doReq(t, off.Handler(), http.MethodGet, "/v1/slo", "", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("disabled SLO returned %d, want 503", rec.Code)
	}
	if rec := doReq(t, off.Handler(), http.MethodGet, "/v1/traces", "", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("disabled tracing returned %d, want 503", rec.Code)
	}
}

// TestTracesBadQueryIsTyped400: the router keeps its own typed 400 over
// the filter parser it shares with the serve tier.
func TestTracesBadQueryIsTyped400(t *testing.T) {
	rt := newTestRouter(t, Config{}, newFakeBackend(t, "a"))
	for _, bad := range []string{"min_ms=abc", "min_ms=-1", "limit=x", "limit=-2"} {
		rec := doReq(t, rt.Handler(), http.MethodGet, "/v1/traces?"+bad, "", nil)
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusBadRequest || eb.Error.Code != CodeBadRequest {
			t.Fatalf("%s: status %d code %q, want a typed 400", bad, rec.Code, eb.Error.Code)
		}
	}
}
