package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/obs"
	"colocmodel/internal/serve"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

// TestRequestIDReachesBackend: the ID the router echoes to its client is
// the one every backend call carries — the router's own when it minted
// it (the normal case), the client's when one came in. Before identity
// was an argument, handlers re-read the inbound header and forwarded ""
// for every minted ID, so the response ↔ log ↔ trace join stopped at
// the hop.
func TestRequestIDReachesBackend(t *testing.T) {
	a := newScriptedBackend(t, "a", 1)
	rt := newScriptedRouter(t, Config{Replicas: 1}, a)
	two := `[` + obsBody("cg", 1) + `,` + obsBody("ep", 2) + `]`
	calls := []struct{ name, method, path, body, backendPath string }{
		{"predict", http.MethodPost, "/v1/predict", predictBody(features.Scenario{Target: "cg"}), "/v1/predict"},
		{"batch", http.MethodPost, "/v1/predict/batch",
			`{"model":"demo","scenarios":[{"target":"cg","co_apps":["ep"]},{"target":"ep","co_apps":["cg"]}]}`, "/v1/predict/batch"},
		{"observation", http.MethodPost, "/v1/observations", obsBody("cg", 1), "/v1/observations"},
		{"observation batch", http.MethodPost, "/v1/observations", `{"observations":` + two + `}`, "/v1/observations"},
		{"reload", http.MethodPost, "/v1/models/reload", "", "/v1/models/reload"},
		{"models", http.MethodGet, "/v1/models", "", "/v1/models"},
		{"placements", http.MethodPost, "/v1/placements", placementsBody, "/v1/placements"},
	}
	for _, c := range calls {
		for _, clientID := range []string{"", "client-7"} {
			var hdr map[string]string
			if clientID != "" {
				hdr = map[string]string{"X-Request-ID": clientID}
			}
			a.mu.Lock()
			delete(a.reqIDs, c.backendPath)
			a.mu.Unlock()
			rec := doReq(t, rt.Handler(), c.method, c.path, c.body, hdr)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", c.name, rec.Code, rec.Body.String())
			}
			echoed := rec.Header().Get("X-Request-ID")
			a.mu.Lock()
			got, called := a.reqIDs[c.backendPath]
			a.mu.Unlock()
			switch {
			case !called:
				t.Fatalf("%s: the backend was never called", c.name)
			case echoed == "" || got != echoed:
				t.Errorf("%s (client ID %q): backend saw X-Request-ID %q, router echoed %q", c.name, clientID, got, echoed)
			case clientID != "" && got != clientID:
				t.Errorf("%s: backend saw %q, want the client's %q", c.name, got, clientID)
			}
		}
	}
}

// edgeTier is one HTTP tier reduced to what the envelope conformance
// table drives: its real Handler(), and one request of each outcome.
type edgeTier struct {
	h          http.Handler
	prefix     string
	failedFrom int // lowest status the tier counts as a failed request
	tracer     *obs.Tracer
	slo        *obs.SLOTracker

	okBody                 string // a POST /v1/predict that answers 200
	badBody                string // a POST /v1/predict that answers 400
	failMethod, failPath   string // a request that answers 5xx
	failEndpoint           string
	placementsStreamedBody string
	drain                  func() // nil on a tier that does not shed
}

func (tier *edgeTier) do(t *testing.T, method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	return doReq(t, tier.h, method, path, body, hdr)
}

func (tier *edgeTier) predict(t *testing.T, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	return tier.do(t, http.MethodPost, "/v1/predict", body, hdr)
}

// metric reads one sample of the tier's own scrape.
func (tier *edgeTier) metric(t *testing.T, sample string) string {
	t.Helper()
	scrape := tier.do(t, http.MethodGet, "/metrics", "", nil).Body.String()
	for _, line := range strings.Split(scrape, "\n") {
		if v, ok := strings.CutPrefix(line, tier.prefix+sample+" "); ok {
			return v
		}
	}
	t.Fatalf("scrape has no %s%s:\n%s", tier.prefix, sample, scrape)
	return ""
}

func edgeTestModel(t *testing.T) *core.Model {
	t.Helper()
	cg, _ := workload.ByName("cg")
	ep, _ := workload.ByName("ep")
	ds, err := harness.Collect(harness.Plan{
		Spec: simproc.XeonE5649(), Targets: []workload.App{cg, ep}, CoApps: []workload.App{cg, ep},
		CoCounts: []int{1, 2}, PStates: []int{0}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	set, _ := features.SetByName("C")
	m, err := core.Train(core.Spec{Technique: core.Linear, FeatureSet: set}, ds, ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// nodeTier is coloserve with a demo model; its 5xx is a reload of an
// artefact that is not on disk.
func nodeTier(t *testing.T, ec obs.EdgeConfig) *edgeTier {
	t.Helper()
	reg := serve.NewRegistry()
	if err := reg.Add("primary", filepath.Join(t.TempDir(), "gone.json"), edgeTestModel(t)); err != nil {
		t.Fatal(err)
	}
	s := serve.New(reg, serve.Config{Logger: ec.Logger, TraceRing: ec.TraceRing, SlowThreshold: ec.SlowThreshold,
		SLOObjective: ec.SLOObjective, SLOLatencyTarget: ec.SLOLatencyTarget})
	return &edgeTier{
		h: s.Handler(), prefix: "coloserve", failedFrom: 400, tracer: s.Tracer(), slo: s.SLO(),
		okBody:     `{"target":"cg","co_apps":["ep"],"pstate":0}`,
		badBody:    `{"target":"ghost","co_apps":["ep"],"pstate":0}`,
		failMethod: http.MethodPost, failPath: "/v1/models/reload", failEndpoint: "reload",
		placementsStreamedBody: `{"machines":[{"count":2}],"apps":["cg","ep"],"seed":3,"beam":4,"stream":true}`,
		drain:                  s.StartDrain,
	}
}

// routerTier is colorouter over two stub backends: "down" answers 500
// and sorts ahead of "ok" by name, so an observation, which is never
// retried, answers down's 500, while whatever else lands on down fails
// over to ok.
func routerTier(t *testing.T, ec obs.EdgeConfig) *edgeTier {
	t.Helper()
	ok, down := newScriptedBackend(t, "ok", 1), newScriptedBackend(t, "down", 1)
	rt := newScriptedRouter(t, Config{Replicas: 2, Logger: ec.Logger, TraceRing: ec.TraceRing, SlowThreshold: ec.SlowThreshold,
		SLOObjective: ec.SLOObjective, SLOLatencyTarget: ec.SLOLatencyTarget}, ok, down)
	down.script(reply500)
	return &edgeTier{
		h: rt.Handler(), prefix: "colorouter", failedFrom: 500, tracer: rt.edge.Tracer(), slo: rt.edge.SLO(),
		okBody:     predictBody(testScenario),
		badBody:    `{"target":`,
		failMethod: http.MethodPost, failPath: "/v1/observations", failEndpoint: "observations",
		placementsStreamedBody: `{"machines":[{"count":2}],"apps":["cg","ep"],"stream":true}`,
	}
}

var edgeTiers = []struct {
	name  string
	build func(*testing.T, obs.EdgeConfig) *edgeTier
}{{"coloserve", nodeTier}, {"colorouter", routerTier}}

// TestEdgeConformance runs one table against both tiers' real handlers:
// everything obs.Edge promises must hold on each, with the tier's own
// failure threshold as the only difference.
func TestEdgeConformance(t *testing.T) {
	for _, tc := range edgeTiers {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("request ID adopted or minted, echoed once", func(t *testing.T) {
				tier := tc.build(t, obs.EdgeConfig{})
				rec := tier.predict(t, tier.okBody, map[string]string{"X-Request-ID": "caller-1"})
				if got := rec.Header()["X-Request-Id"]; len(got) != 1 || got[0] != "caller-1" {
					t.Fatalf("adopted ID echoed as %q (status %d)", got, rec.Code)
				}
				minted := map[string]bool{}
				for _, rec := range []*httptest.ResponseRecorder{
					tier.predict(t, tier.okBody, nil), tier.predict(t, tier.badBody, nil),
					tier.do(t, tier.failMethod, tier.failPath, "", nil), tier.do(t, http.MethodGet, "/metrics", "", nil),
				} {
					got := rec.Header()["X-Request-Id"]
					if len(got) != 1 || got[0] == "" || minted[got[0]] {
						t.Fatalf("minted ID echoed as %q (status %d)", got, rec.Code)
					}
					minted[got[0]] = true
				}
			})

			t.Run("sampled traceparent parents the retained trace", func(t *testing.T) {
				tier := tc.build(t, obs.EdgeConfig{SlowThreshold: -1})
				parent := obs.NewTraceContext()
				tier.predict(t, tier.okBody, map[string]string{obs.TraceparentHeader: parent.Header()})
				got := tier.tracer.Snapshot(obs.Filter{Name: "predict"})
				if len(got) != 1 || got[0].TraceID != parent.TraceIDString() {
					t.Fatalf("retained %+v, want one predict trace under %s", got, parent.TraceIDString())
				}
			})

			t.Run("failures per the tier's threshold", func(t *testing.T) {
				tier := tc.build(t, obs.EdgeConfig{})
				tier.predict(t, tier.okBody, nil)
				if rec := tier.predict(t, tier.badBody, nil); rec.Code != http.StatusBadRequest {
					t.Fatalf("bad request answered %d", rec.Code)
				}
				if rec := tier.do(t, tier.failMethod, tier.failPath, "", nil); rec.Code < 500 {
					t.Fatalf("failing request answered %d", rec.Code)
				}
				want4xx := 0
				if tier.failedFrom <= 400 {
					want4xx = 1
				}
				if got := tier.metric(t, `_request_errors_total{endpoint="predict"}`); got != strconv.Itoa(want4xx) {
					t.Errorf("4xx counted %s time(s) in request_errors_total, want %d", got, want4xx)
				}
				if got := tier.metric(t, `_request_errors_total{endpoint="`+tier.failEndpoint+`"}`); got != "1" {
					t.Errorf("5xx counted %s time(s) in request_errors_total, want 1", got)
				}
				if got := tier.metric(t, `_requests_total{endpoint="predict"}`); got != "2" {
					t.Errorf("predict requests_total %s, want 2", got)
				}
				if got := len(tier.tracer.Snapshot(obs.Filter{Name: "predict"})); got != want4xx {
					t.Errorf("%d predict trace(s) retained, want %d (the 4xx, if it counts as failed)", got, want4xx)
				}
				if got := len(tier.tracer.Snapshot(obs.Filter{Name: tier.failEndpoint})); got != 1 {
					t.Errorf("%d %s trace(s) retained, want the 5xx", got, tier.failEndpoint)
				}
			})

			t.Run("one log line at three levels", func(t *testing.T) {
				for _, c := range []struct {
					level, msg string
					slow       time.Duration
					fail       bool
				}{
					{"INFO", "request", time.Hour, false},
					{"WARN", "slow request", -1, false},
					{"ERROR", "request failed", time.Hour, true},
				} {
					var buf bytes.Buffer
					logger, _ := obs.NewLogger(&buf, "json", 0)
					tier := tc.build(t, obs.EdgeConfig{Logger: logger, SlowThreshold: c.slow})
					method, path, endpoint, rec := http.MethodPost, "/v1/predict", "predict", (*httptest.ResponseRecorder)(nil)
					if c.fail {
						method, path, endpoint = tier.failMethod, tier.failPath, tier.failEndpoint
						rec = tier.do(t, method, path, "", nil)
					} else {
						rec = tier.predict(t, tier.okBody, nil)
					}
					var line struct {
						Level, Msg, Endpoint, Method, Path string
						RequestID                          string   `json:"request_id"`
						Status                             int      `json:"status"`
						DurMS                              *float64 `json:"dur_ms"`
					}
					if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
						t.Fatalf("%s: want exactly one JSON log line, got %q: %v", c.level, buf.String(), err)
					}
					if line.Level != c.level || line.Msg != c.msg || line.Endpoint != endpoint || line.Method != method ||
						line.Path != path || line.Status != rec.Code || line.DurMS == nil ||
						line.RequestID == "" || line.RequestID != rec.Header().Get("X-Request-ID") {
						t.Errorf("want %s %q for %s %s → %d, logged %s", c.level, c.msg, method, path, rec.Code, buf.String())
					}
				}
			})

			t.Run("SLO observes the predict paths only", func(t *testing.T) {
				tier := tc.build(t, obs.EdgeConfig{})
				tier.do(t, http.MethodGet, "/healthz", "", nil)
				tier.do(t, tier.failMethod, tier.failPath, "", nil)
				tier.do(t, http.MethodGet, "/v1/slo", "", nil)
				if st := tier.slo.Status(); st.Short.Good+st.Short.Bad != 0 {
					t.Fatalf("non-predict requests reached the SLO: %+v", st.Short)
				}
				tier.predict(t, tier.okBody, nil)
				tier.do(t, http.MethodPost, "/v1/predict/batch", `{"scenarios":[{"target":"cg","co_apps":["ep"]}]}`, nil)
				var st obs.SLOStatus
				rec := tier.do(t, http.MethodGet, "/v1/slo", "", nil)
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.Short.Good != 2 || st.Short.Bad != 0 {
					t.Fatalf("/v1/slo after a predict and a batch: %d %s", rec.Code, rec.Body.String())
				}
				// The scrape's SLO gauges are the numbers /v1/slo reports.
				short, long := `{window="`+st.Short.Window.String()+`"}`, `{window="`+st.Long.Window.String()+`"}`
				for sample, want := range map[string]float64{
					"_slo_objective":          st.Objective,
					"_slo_good_total" + short: float64(st.Short.Good),
					"_slo_good_total" + long:  float64(st.Long.Good),
					"_slo_bad_total" + short:  float64(st.Short.Bad),
					"_slo_burn_rate" + long:   st.Long.BurnRate,
					"_slo_state":              0, // ok
				} {
					if got := tier.metric(t, sample); got != strconv.FormatFloat(want, 'g', -1, 64) {
						t.Errorf("%s%s = %s, /v1/slo reports %v (%s)", tier.prefix, sample, got, want, st.State)
					}
				}
			})

			t.Run("scrape, traces and SLO endpoints", func(t *testing.T) {
				tier := tc.build(t, obs.EdgeConfig{})
				rec := tier.do(t, http.MethodGet, "/metrics", "", nil)
				if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || ct != "text/plain; version=0.0.4; charset=utf-8" {
					t.Fatalf("/metrics answered %d as %q", rec.Code, ct)
				}
				if got := tier.metric(t, `_requests_total{endpoint="metrics"}`); got != "1" {
					t.Errorf("the second scrape reports %s earlier scrape(s), want 1", got)
				}
				typed := func(rec *httptest.ResponseRecorder, status int, code string) {
					t.Helper()
					var eb errorBody
					if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != status || eb.Error.Code != code || eb.Error.Message == "" {
						t.Errorf("want a typed %d %s, got %d %s", status, code, rec.Code, rec.Body.String())
					}
				}
				var traces obs.TracesResponse
				rec = tier.do(t, http.MethodGet, "/v1/traces?limit=1", "", nil)
				if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil || rec.Code != http.StatusOK || traces.Stats.Capacity != 256 {
					t.Errorf("/v1/traces answered %d %s", rec.Code, rec.Body.String())
				}
				typed(tier.do(t, http.MethodGet, "/v1/traces?limit=-2", "", nil), http.StatusBadRequest, "bad_request")
				off := tc.build(t, obs.EdgeConfig{TraceRing: -1, SLOObjective: -1})
				typed(off.do(t, http.MethodGet, "/v1/traces", "", nil), http.StatusServiceUnavailable, "tracing_disabled")
				typed(off.do(t, http.MethodGet, "/v1/slo", "", nil), http.StatusServiceUnavailable, "slo_disabled")
				if rec := off.predict(t, off.okBody, nil); rec.Code != http.StatusOK {
					t.Errorf("predict with tracing and SLO off answered %d", rec.Code)
				}
			})

			t.Run("in-flight gauge returns to zero", func(t *testing.T) {
				tier := tc.build(t, obs.EdgeConfig{})
				tier.predict(t, tier.badBody, nil)
				tier.do(t, tier.failMethod, tier.failPath, "", nil)
				rec := tier.do(t, http.MethodPost, "/v1/placements", tier.placementsStreamedBody, nil)
				if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || ct != "application/x-ndjson" {
					t.Fatalf("streamed placement answered %d as %q: %s", rec.Code, ct, rec.Body.String())
				}
				if tier.drain != nil {
					tier.drain()
					if rec := tier.predict(t, tier.okBody, nil); rec.Code != http.StatusServiceUnavailable {
						t.Fatalf("shed answered %d", rec.Code)
					}
				}
				if got := tier.metric(t, "_in_flight_requests"); got != "0" {
					t.Errorf("in-flight gauge reads %s once every request has completed", got)
				}
			})
		})
	}
}
