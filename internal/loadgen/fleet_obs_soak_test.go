package loadgen

// The fleet-observability acceptance soak: a seeded in-process cluster
// run (router + replicas over loopback HTTP, under -race in CI) must
// leave stitched cross-process traces in the router's ring — router
// route/proxy spans plus the winning backend's decode → cache → eval →
// encode spans under one trace ID — and the router's fleet-metrics
// merge must equal the arithmetic sum of the per-backend scrapes.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"colocmodel/internal/cluster"
	"colocmodel/internal/fleetobs"
	"colocmodel/internal/obs"
	"colocmodel/internal/serve"
)

func doHandler(t testing.TB, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestFleetObservabilitySoak(t *testing.T) {
	// Retain-all thresholds on BOTH tiers: the router keeps every trace
	// in its ring and the backends ship their span tree on every sampled
	// request, so the stitching assertions see the whole stream.
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	ct, err := NewClusterTarget(ctx,
		cluster.Config{Replicas: 2, SlowThreshold: -1, ProbeInterval: time.Hour}, 3,
		func(int) (*serve.Server, error) {
			return newSoakServerWith(t, serve.Config{CacheSize: 1 << 10, SlowThreshold: -1}), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ct.Close)
	space := soakSpace(t, ct.Servers[0])

	const requests = 600
	rep, err := Run(Config{
		Mode:        ClosedLoop,
		Concurrency: 8,
		Duration:    time.Minute,
		Requests:    requests,
		Seed:        99,
		Mix: Mix{
			ZipfSkew:      1.1,
			PredictWeight: 8,
			BatchWeight:   1,
			ObserveWeight: 1,
			BatchSize:     4,
		},
	}, ct.Doer(), space)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status4xx != 0 || rep.Status5xx != 0 || rep.TransportErrors != 0 {
		t.Fatalf("soak saw errors: 4xx=%d 5xx=%d transport=%d", rep.Status4xx, rep.Status5xx, rep.TransportErrors)
	}

	h := ct.Router.Handler()

	// 1. The ring retained stitched traces: at least one predict trace
	// carries the router's route span AND the winning backend's full
	// stage pipeline under the router's trace ID.
	rec := doHandler(t, h, http.MethodGet, "/v1/traces?endpoint=predict&limit=200", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("traces returned %d: %s", rec.Code, rec.Body.String())
	}
	var traces obs.TracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Fatal(err)
	}
	stitched := 0
	for _, td := range traces.Traces {
		if td.Status != http.StatusOK || len(td.TraceID) != 32 {
			continue
		}
		spans := make(map[string]int) // "name/origin" -> index
		for i, sp := range td.Spans {
			spans[sp.Name+"/"+sp.Origin] = i
		}
		if _, ok := spans["route/"]; !ok {
			continue
		}
		backend := ""
		for _, name := range []string{"b0", "b1", "b2"} {
			if _, ok := spans["predict/"+name]; ok {
				backend = name
				break
			}
		}
		if backend == "" {
			continue
		}
		complete := true
		for _, stage := range []string{"decode", "cache", "eval", "encode"} {
			if _, ok := spans[stage+"/"+backend]; !ok {
				complete = false
				break
			}
		}
		if complete {
			stitched++
		}
	}
	if stitched == 0 {
		t.Fatalf("no stitched predict trace among %d retained traces", traces.Count)
	}

	// 2. The fleet-metrics merge equals the arithmetic sum of the
	// per-backend scrapes (traffic has stopped, so counters are stable;
	// the comparison sticks to the predict endpoints, which the scrapes
	// themselves cannot move).
	rec = doHandler(t, h, http.MethodGet, "/v1/fleet/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("fleet metrics returned %d", rec.Code)
	}
	merged, err := fleetobs.Parse(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatalf("fleet document does not parse: %v", err)
	}
	for _, endpoint := range []string{"predict", "predict_batch"} {
		ep := fleetobs.Label{Key: "endpoint", Value: endpoint}
		var wantReq, wantInf float64
		for i := range ct.Servers {
			resp, err := http.Get(ct.BackendURL(i) + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			doc, err := fleetobs.Parse(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("backend %d scrape does not parse: %v", i, err)
			}
			v, _ := doc.SumSamples("coloserve_requests_total", "coloserve_requests_total", ep)
			wantReq += v
			v, _ = doc.SumSamples("coloserve_request_duration_seconds",
				"coloserve_request_duration_seconds_bucket", ep, fleetobs.Label{Key: "le", Value: "+Inf"})
			wantInf += v
		}
		got, _ := merged.SumSamples("coloserve_requests_total", "coloserve_requests_total", ep)
		if got != wantReq {
			t.Fatalf("%s: merged requests %v, want the per-backend sum %v", endpoint, got, wantReq)
		}
		got, _ = merged.SumSamples("coloserve_request_duration_seconds",
			"coloserve_request_duration_seconds_bucket", ep, fleetobs.Label{Key: "le", Value: "+Inf"})
		if got != wantInf {
			t.Fatalf("%s: merged +Inf bucket %v, want the per-backend sum %v", endpoint, got, wantInf)
		}
	}

	// 3. An error-free soak verdicts ok on both tiers.
	rec = doHandler(t, h, http.MethodGet, "/v1/slo", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("router slo returned %d", rec.Code)
	}
	var st obs.SLOStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "ok" {
		t.Fatalf("router SLO state %q after an error-free soak, want ok (%+v)", st.State, st)
	}
	if st.Short.Good == 0 {
		t.Fatal("router SLO short window saw no observations")
	}
}

// BenchmarkClusterProxyTracing measures the router's cache-hit proxy
// hot path with observability on (default: tracing, traceparent
// injection, SLO accounting) against fully off, to bound the tracing
// overhead. The path includes a real loopback HTTP hop, as production
// does.
func BenchmarkClusterProxyTracing(b *testing.B) {
	for _, mode := range []struct {
		name string
		cfg  cluster.Config
	}{
		{"traced", cluster.Config{Replicas: 2, HedgeAfter: -1}},
		{"untraced", cluster.Config{Replicas: 2, HedgeAfter: -1, TraceRing: -1, SLOObjective: -1}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := mode.cfg
			cfg.ProbeInterval = time.Hour
			ct, err := NewClusterTarget(ctx, cfg, 2, func(int) (*serve.Server, error) {
				return newSoakServer(b), nil
			})
			if err != nil {
				b.Fatal(err)
			}
			defer ct.Close()
			space := soakSpace(b, ct.Servers[0])
			sc := space.Scenario(0)
			co := ""
			if len(sc.CoApps) > 0 {
				co = `"co_apps":["` + strings.Join(sc.CoApps, `","`) + `"],`
			}
			body := fmt.Sprintf(`{"target":%q,%s"pstate":%d}`, sc.Target, co, sc.PState)
			h := ct.Router.Handler()
			if rec := doHandler(b, h, http.MethodPost, "/v1/predict", body); rec.Code != http.StatusOK {
				b.Fatalf("warm-up predict returned %d: %s", rec.Code, rec.Body.String())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec := doHandler(b, h, http.MethodPost, "/v1/predict", body); rec.Code != http.StatusOK {
					b.Fatalf("predict returned %d", rec.Code)
				}
			}
		})
	}
}
