package cluster

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"colocmodel/internal/core"
	"colocmodel/internal/drift"
	"colocmodel/internal/features"
	"colocmodel/internal/feedback"
	"colocmodel/internal/fleetobs"
	"colocmodel/internal/harness"
	"colocmodel/internal/retrain"
	"colocmodel/internal/serve"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

// TestMetricsGolden drives the router's metrics layer through a fixed
// sequence of calls and compares the scrape byte for byte with one
// captured from the hand-written renderer the registry replaced (PR
// 12's WritePrometheus), less the colorouter_metrics_dropped_total
// family that went with the unregistered-endpoint branch and the two
// hedge families that went with hedging.
func TestMetricsGolden(t *testing.T) {
	pool := newPool(Config{})
	for _, name := range []string{"b", "a"} {
		if err := pool.Add(name, "http://"+name); err != nil {
			t.Fatal(err)
		}
	}
	pool.Get("b").state.Store(int32(StateEjected)) // one of two backends healthy
	m := NewMetrics(pool)
	predict := m.endpoints.Endpoint("predict")
	for i := 0; i < 40; i++ {
		predict.Observe(time.Duration(i*i)*53*time.Microsecond, i%9 == 0)
	}
	predict.Observe(50*time.Microsecond, false)
	m.endpoints.Endpoint("placements").Observe(3*time.Second, true)
	m.endpoints.Endpoint("metrics").Observe(350*time.Microsecond, false)
	a, b := &pool.Get("a").metrics, &pool.Get("b").metrics
	for i := 0; i < 7; i++ {
		b.request(i == 3)
	}
	a.request(false)
	a.request(true)
	a.sheds.Inc()
	b.ejections.Inc()
	b.readmissions.Inc()
	a.generation.SetMax(3)
	a.generation.SetMax(2)
	b.generation.SetMax(1)
	m.promotions.Inc()
	m.noBackend.Inc()
	m.inFlight.Add(1)

	golden, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want, got strings.Builder
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		if !strings.Contains(line, "colorouter_metrics_dropped_total") {
			want.WriteString(line)
		}
	}
	m.reg.Write(&got)
	if got.String() != want.String() {
		t.Fatalf("scrape differs from testdata/metrics.golden:\n%s", got.String())
	}
}

// TestProxyRecordsIntoBackendHandles pins where a proxied predict is
// counted: in the series its Backend holds (Metrics keeps no per-backend
// map and no lock to find them through), which is what both the read
// accessor and the scrape report.
func TestProxyRecordsIntoBackendHandles(t *testing.T) {
	a := newFakeBackend(t, "a")
	rt := newTestRouter(t, Config{Replicas: 1}, a)
	if rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", predictBody(testScenario), nil); rec.Code != http.StatusOK {
		t.Fatalf("predict returned %d", rec.Code)
	}
	if got := rt.pool.Get("a").metrics.requests.Load(); got != 1 {
		t.Fatalf("backend a's handle counted %d requests, want 1", got)
	}
	if got := rt.metrics.BackendRequests("a"); got != 1 {
		t.Fatalf("BackendRequests(a) = %d, want 1", got)
	}
	if got := rt.metrics.BackendRequests("ghost"); got != 0 {
		t.Fatalf("BackendRequests(ghost) = %d, want 0", got)
	}
	scrape := doReq(t, rt.Handler(), http.MethodGet, "/metrics", "", nil).Body.String()
	if want := `colorouter_backend_requests_total{backend="a"} 1`; !strings.Contains(scrape, want) {
		t.Fatalf("scrape missing %q:\n%s", want, scrape)
	}
}

// serveScrape returns the /metrics document of a real serve.Server
// with adaptation, a disk log and SLO tracking on, after a few
// predicts (one failing), a batch of observations and one retrain.
func serveScrape(t *testing.T) string {
	t.Helper()
	cg, _ := workload.ByName("cg")
	ep, _ := workload.ByName("ep")
	canneal, _ := workload.ByName("canneal")
	ds, err := harness.Collect(harness.Plan{
		Spec:       simproc.XeonE5649(),
		Targets:    []workload.App{cg, canneal, ep},
		CoApps:     []workload.App{cg, ep},
		CoCounts:   []int{1, 3},
		PStates:    []int{0, 1},
		NoiseSigma: 0.01,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	set, err := features.SetByName("F")
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Train(core.Spec{Technique: core.Linear, FeatureSet: set, Seed: 1}, ds, ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if err := reg.Add("primary", "", model); err != nil {
		t.Fatal(err)
	}
	s := serve.New(reg, serve.Config{})
	log, err := feedback.Open(feedback.Config{Dir: t.TempDir(), MaxSegmentRecords: 8, CompactAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	ctrl, err := retrain.New(retrain.Config{Model: "primary", Seed: 42, MinObservations: 10, MarginPct: 0.01}, reg, ds, log)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableAdaptation(serve.Adaptation{
		Log: log, Monitor: drift.NewMonitor(drift.Config{Lambda: 30, MinSamples: 10}), Controller: ctrl,
	}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	post := func(path string, body any, want int) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		if rec := doReq(t, h, http.MethodPost, path, string(raw), nil); rec.Code != want {
			t.Fatalf("POST %s returned %d, want %d: %s", path, rec.Code, want, rec.Body.String())
		}
	}
	obsBatch := serve.ObservationsRequest{}
	for i, r := range ds.Records[:30] {
		sc := features.ScenarioFromRecord(r)
		sr := serve.ScenarioRequest{Target: sc.Target, CoApps: sc.CoApps, PState: sc.PState}
		if i < 4 {
			post("/v1/predict", serve.PredictRequest{ScenarioRequest: sr}, http.StatusOK)
		}
		obsBatch.Observations = append(obsBatch.Observations, serve.ObservationRequest{
			Target: sr.Target, CoApps: sr.CoApps, PState: sr.PState, MeasuredSeconds: r.Seconds,
		})
	}
	post("/v1/predict", serve.PredictRequest{ScenarioRequest: serve.ScenarioRequest{Target: "ghost"}}, http.StatusBadRequest)
	post("/v1/observations", obsBatch, http.StatusOK)
	post("/v1/retrain", serve.RetrainRequest{Wait: true}, http.StatusOK)
	return doReq(t, h, http.MethodGet, "/metrics", "", nil).Body.String()
}

// routerScrapes returns a router's /metrics and /v1/fleet/metrics
// documents after proxied predicts to two backends, one of which then
// dies so a call fails over.
func routerScrapes(t *testing.T) (metrics, fleet string) {
	t.Helper()
	a := newFakeBackend(t, "a")
	b := newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{Replicas: 2}, a, b)
	h := rt.Handler()
	predict := func(what string) {
		t.Helper()
		if rec := doReq(t, h, http.MethodPost, "/v1/predict", predictBody(testScenario), nil); rec.Code != http.StatusOK {
			t.Fatalf("predict %s returned %d: %s", what, rec.Code, rec.Body.String())
		}
	}
	predict("on a")
	// While a looks busy, b is the first candidate: it serves once, then
	// dies, and the next call fails over from it to a.
	ba := rt.pool.Get("a")
	ba.acquire()
	predict("on b")
	b.ts.Close()
	predict("failing over from b")
	ba.release()
	if got := rt.pool.Get("b").metrics.errors.Load(); got != 1 {
		t.Fatalf("backend b counted %d failed calls, want 1", got)
	}
	return doReq(t, h, http.MethodGet, "/metrics", "", nil).Body.String(),
		doReq(t, h, http.MethodGet, "/v1/fleet/metrics", "", nil).Body.String()
}

// lintExposition checks the text layout fleetobs.Parse is lenient
// about: every family has exactly one TYPE line and at most one HELP
// line (exactly one when needHelp), HELP first, both before the
// family's first sample.
func lintExposition(t *testing.T, text string, needHelp bool) {
	t.Helper()
	helps, types, sampled := map[string]int{}, map[string]string{}, map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if helps[name]++; helps[name] > 1 || types[name] != "" || sampled[name] {
				t.Errorf("misplaced or repeated HELP: %q", line)
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if types[name] != "" || sampled[name] || (needHelp && helps[name] != 1) {
				t.Errorf("misplaced or repeated TYPE (or no HELP before it): %q", line)
			}
			types[name] = typ
			continue
		}
		if line == "" {
			continue
		}
		family := line[:strings.IndexAny(line, "{ ")]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(family, suffix); ok && types[base] == "histogram" {
				family = base
			}
		}
		if types[family] == "" {
			t.Errorf("sample before its family's TYPE line: %q", line)
		}
		sampled[family] = true
	}
}

// seriesKey is a sample's labels without le, to match a histogram
// series' buckets with its _count.
func seriesKey(s *fleetobs.Sample) string {
	var sb strings.Builder
	for _, l := range s.Labels {
		if l.Key != "le" {
			sb.WriteString(l.Key + "=" + l.Value + ",")
		}
	}
	return sb.String()
}

// TestScrapeRoundTrip renders every emitter's real document, parses it
// with the strict fleetobs parser, and merges copies of it: the text
// layout is well formed, histograms are cumulative with +Inf equal to
// _count, and a merge of N copies multiplies counters and histograms by
// N while relabelling gauges per backend — the retrain counters
// included, which a 3-backend merge must sum, not relabel.
func TestScrapeRoundTrip(t *testing.T) {
	routerDoc, fleetDoc := routerScrapes(t)
	for _, tc := range []struct {
		name, text string
		needHelp   bool // the fleet document merges the fakes' HELP-less scrapes
		families   []string
	}{
		{"coloserve", serveScrape(t), true, []string{
			"coloserve_requests_total", "coloserve_request_duration_seconds", "coloserve_models_loaded",
			"coloserve_drift_score", "coloserve_obs_commit_duration_seconds", "coloserve_obs_compaction_runs_total",
			"coloserve_retrains_attempted_total", "coloserve_retrain_candidate_mpe", "coloserve_slo_burn_rate"}},
		{"colorouter", routerDoc, true, []string{
			"colorouter_requests_total", "colorouter_request_duration_seconds", "colorouter_backend_errors_total",
			"colorouter_backend_generation", "colorouter_backends_healthy", "colorouter_slo_state"}},
		{"fleet", fleetDoc, false, []string{
			"coloserve_requests_total", "colorouter_fleet_backend_up", "colorouter_fleet_backend_error_rate",
			"colorouter_requests_total", "colorouter_slo_state"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lintExposition(t, tc.text, tc.needHelp)
			doc, err := fleetobs.Parse(strings.NewReader(tc.text))
			if err != nil {
				t.Fatalf("strict parse rejected the document: %v\n%s", err, tc.text)
			}
			byName := map[string]*fleetobs.Family{}
			for _, f := range doc.Families {
				byName[f.Name] = f
				if f.Type != "histogram" {
					continue
				}
				last, counts := map[string]float64{}, map[string]float64{}
				for _, s := range f.Samples {
					switch key := seriesKey(s); s.Name {
					case f.Name + "_bucket":
						if s.Value < last[key] {
							t.Errorf("%s{%s}: buckets not cumulative", f.Name, key)
						}
						last[key] = s.Value
					case f.Name + "_count":
						counts[key] = s.Value
					}
				}
				for key, n := range counts {
					if last[key] != n {
						t.Errorf("%s{%s}: +Inf bucket %v != _count %v", f.Name, key, last[key], n)
					}
				}
			}
			for _, name := range tc.families {
				if byName[name] == nil {
					t.Errorf("family %s missing from the document", name)
				}
			}

			const n = 3
			merged := fleetobs.Merge([]string{"x", "y", "z"}, []*fleetobs.Doc{doc, doc, doc})
			if len(merged.Families) != len(doc.Families) {
				t.Fatalf("merge has %d families, the document %d", len(merged.Families), len(doc.Families))
			}
			for i, f := range doc.Families {
				mf := merged.Families[i]
				if mf.Name != f.Name || mf.Type != f.Type || mf.Help != f.Help {
					t.Fatalf("merged family %d is %s/%s, want %s/%s", i, mf.Name, mf.Type, f.Name, f.Type)
				}
				switch f.Type {
				case "counter", "histogram":
					if len(mf.Samples) != len(f.Samples) {
						t.Fatalf("%s: %d merged samples, want %d", f.Name, len(mf.Samples), len(f.Samples))
					}
					for j, s := range f.Samples {
						if got, want := mf.Samples[j].Value, n*s.Value; math.Abs(got-want) > 1e-9*math.Abs(want) {
							t.Errorf("%s: merged %v, want %d×%v", s.Name, got, n, s.Value)
						}
					}
				default:
					if len(mf.Samples) != n*len(f.Samples) {
						t.Fatalf("%s: %d merged samples, want %d", f.Name, len(mf.Samples), n*len(f.Samples))
					}
					for _, s := range mf.Samples {
						if s.Labels[0].Key != "backend" {
							t.Errorf("%s: merged gauge not relabelled per backend: %+v", s.Name, s.Labels)
						}
					}
				}
			}
			if tc.name == "coloserve" {
				f := byName["coloserve_retrains_attempted_total"]
				if f == nil || f.Type != "counter" || len(f.Samples) != 1 || f.Samples[0].Value != 1 {
					t.Fatalf("retrain attempts not a counter at 1: %+v", f)
				}
				if total, series := merged.SumSamples(f.Name, f.Name); total != n || series != 1 {
					t.Fatalf("3-backend merge of retrain attempts = %v over %d series, want one summed series of 3", total, series)
				}
			}
		})
	}
}
