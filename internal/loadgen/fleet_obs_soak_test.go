package loadgen

// The fleet-observability acceptance soak: a seeded in-process cluster
// run (router + replicas over loopback HTTP, under -race in CI) must
// leave stitched cross-process traces in the router's ring — router
// route/proxy spans plus the winning backend's decode → eval → encode
// spans under one trace ID — and the router's fleet-metrics
// merge must equal the arithmetic sum of the per-backend scrapes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
			return newSoakServerWith(t, serve.Config{SlowThreshold: -1}), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ct.Close)
	space := soakSpace(t, ct.Servers[0])

	const requests = 600
	rep, err := Run(Config{
		Requests: requests,
		Seed:     99,
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
	if v := rep.Gate(); len(v) != 0 {
		t.Fatalf("soak failed: %v", v)
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
		for _, stage := range []string{"decode", "eval", "encode"} {
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

// leanCaller drives a handler the way the repository benchmark does
// (the bench/caller.go idea; bench/ is its own module and cannot be
// imported): the request is built directly and the reply lands in a
// reusable minimal ResponseWriter, so a routed predict is measured
// without httptest's per-call recorder and 4 KB bufio.Reader.
type leanCaller struct {
	hdr    http.Header
	u      url.URL
	body   leanBody
	status int
	reply  []byte
	rhdr   http.Header
}

type leanBody struct{ bytes.Reader }

func (*leanBody) Close() error { return nil }

func newLeanCaller(path string) *leanCaller {
	return &leanCaller{hdr: http.Header{"Content-Type": {"application/json"}}, u: url.URL{Path: path}, rhdr: make(http.Header, 8)}
}

func (c *leanCaller) Header() http.Header { return c.rhdr }

func (c *leanCaller) WriteHeader(status int) {
	if c.status == 0 {
		c.status = status
	}
}

func (c *leanCaller) Write(p []byte) (int, error) {
	c.WriteHeader(http.StatusOK)
	c.reply = append(c.reply, p...)
	return len(p), nil
}

// post sends one POST and returns the status; the reply body is in
// c.reply until the next call.
func (c *leanCaller) post(h http.Handler, body []byte) int {
	clear(c.rhdr)
	c.status, c.reply = 0, c.reply[:0]
	c.body.Reset(body)
	h.ServeHTTP(c, &http.Request{
		Method: http.MethodPost, URL: &c.u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: c.hdr, Body: &c.body, ContentLength: int64(len(body)), Host: "bench", RequestURI: c.u.Path,
	})
	c.WriteHeader(http.StatusOK)
	return c.status
}

// routedFleet builds a two-replica fleet behind a router with cfg and
// returns the router's handler and the scenario space the replicas serve.
func routedFleet(tb testing.TB, cfg cluster.Config) (http.Handler, *Space) {
	tb.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	tb.Cleanup(cancel)
	cfg.ProbeInterval = time.Hour
	ct, err := NewClusterTarget(ctx, cfg, 2, func(int) (*serve.Server, error) {
		return newSoakServer(tb), nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(ct.Close)
	return ct.Router.Handler(), soakSpace(tb, ct.Servers[0])
}

// scenarioJSON renders a scenario as the wire codec does.
func scenarioJSON(sc serve.ScenarioRequest) string {
	co := ""
	if len(sc.CoApps) > 0 {
		co = `"co_apps":["` + strings.Join(sc.CoApps, `","`) + `"],`
	}
	return fmt.Sprintf(`{"target":%q,%s"pstate":%d}`, sc.Target, co, sc.PState)
}

// routedPredict returns routedFleet's handler and n clients, each a
// caller and the request body of its own scenario, already served once
// (connections open, pools warm).
func routedPredict(tb testing.TB, cfg cluster.Config, n int) (http.Handler, []*leanCaller, [][]byte) {
	tb.Helper()
	h, space := routedFleet(tb, cfg)
	callers, bodies := make([]*leanCaller, n), make([][]byte, n)
	for i := range callers {
		callers[i], bodies[i] = newLeanCaller("/v1/predict"), []byte(scenarioJSON(space.Scenario(i)))
		if status := callers[i].post(h, bodies[i]); status != http.StatusOK {
			tb.Fatalf("warm-up predict returned %d: %s", status, callers[i].reply)
		}
	}
	return h, callers, bodies
}

// BenchmarkClusterProxyTracing measures the router's single-predict
// proxy hot path as the repository benchmark drives it — one closed-loop
// client per CPU, observability on (tracing, traceparent injection, SLO
// accounting) — beside the same path with observability fully off, to
// bound what it costs, and (batch64) a routed 64-row batch under the
// default Config, which no workload of the repository benchmark drives.
// The path includes a real loopback HTTP hop, as production does. ns/op
// is wall time per request over all clients: a request's latency is that
// times the -cpu value. stalled is the tail benchmark of least-loaded
// routing under a stalled replica: three replicas, b0 answering nothing
// for the first 10 ms of every 100 ms, closed-loop clients at GOMAXPROCS
// and at 8, with per-request p50/p99/p999 reported beside ns/op.
func BenchmarkClusterProxyTracing(b *testing.B) {
	// drive runs one closed-loop client per CPU, each walking the bodies
	// bodiesOf gives it, in order.
	drive := func(b *testing.B, h http.Handler, callers []*leanCaller, bodiesOf func(client int) [][]byte) {
		var next atomic.Int32
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			client := int(next.Add(1)) - 1
			c, bodies := callers[client], bodiesOf(client)
			for i := 0; pb.Next(); i++ {
				if status := c.post(h, bodies[i%len(bodies)]); status != http.StatusOK {
					b.Errorf("%s returned %d", c.u.Path, status)
					return
				}
			}
		})
	}
	for _, mode := range []struct {
		name string
		cfg  cluster.Config
	}{
		{"traced", cluster.Config{Replicas: 2}},
		{"untraced", cluster.Config{Replicas: 2, TraceRing: -1, SLOObjective: -1}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			h, callers, bodies := routedPredict(b, mode.cfg, runtime.GOMAXPROCS(0))
			drive(b, h, callers, func(client int) [][]byte { return bodies[client : client+1] })
		})
	}
	b.Run("batch64", func(b *testing.B) {
		h, space := routedFleet(b, cluster.Config{Replicas: 2})
		bodies := make([][]byte, 8) // a handful of distinct batches
		for i := range bodies {
			rows := make([]string, 64)
			for j := range rows {
				rows[j] = scenarioJSON(space.Scenario((i*len(rows) + j) % space.Size()))
			}
			bodies[i] = []byte(`{"scenarios":[` + strings.Join(rows, ",") + `]}`)
		}
		callers := make([]*leanCaller, runtime.GOMAXPROCS(0))
		for i := range callers {
			callers[i] = newLeanCaller("/v1/predict/batch")
			if status := callers[i].post(h, bodies[i%len(bodies)]); status != http.StatusOK || !bytes.Contains(callers[i].reply, []byte(`"errors":0}`)) {
				b.Fatalf("warm-up batch returned %d: %s", status, callers[i].reply)
			}
		}
		drive(b, h, callers, func(int) [][]byte { return bodies })
	})
	b.Run("stalled", func(b *testing.B) {
		clientCounts := []int{runtime.GOMAXPROCS(0)}
		if clientCounts[0] != 8 {
			clientCounts = append(clientCounts, 8)
		}
		for _, clients := range clientCounts {
			b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
				h, callers, bodies := stalledFleet(b, clients)
				driveLatencies(b, h, callers, bodies)
			})
		}
	})
}

// stallPeriod and stallWindow set stallHandler's schedule: a replica
// that answers nothing for the first 10 ms of every 100 ms.
const (
	stallPeriod = 100 * time.Millisecond
	stallWindow = 10 * time.Millisecond
)

// stallHandler holds every request that arrives in the first
// stallWindow of each stallPeriod until that window closes, then serves
// it with h.
func stallHandler(h http.Handler) http.Handler {
	origin := time.Now()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if phase := time.Since(origin) % stallPeriod; phase < stallWindow {
			time.Sleep(stallWindow - phase)
		}
		h.ServeHTTP(w, r)
	})
}

// stalledFleet builds three replicas behind a router with the default
// Config, b0 behind stallHandler, and returns the router's handler and n
// clients, each a caller and the request body of its own scenario,
// already served once.
func stalledFleet(b *testing.B, n int) (http.Handler, []*leanCaller, [][]byte) {
	b.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	b.Cleanup(cancel)
	rt := cluster.New(cluster.Config{ProbeInterval: time.Hour})
	var space *Space
	for i := 0; i < 3; i++ {
		srv := newSoakServer(b)
		h := srv.Handler()
		if i == 0 {
			h, space = stallHandler(h), soakSpace(b, srv)
		}
		ts := httptest.NewServer(h)
		b.Cleanup(ts.Close)
		if err := rt.Pool().Add(fmt.Sprintf("b%d", i), ts.URL); err != nil {
			b.Fatal(err)
		}
	}
	rt.Start(ctx)
	callers, bodies := make([]*leanCaller, n), make([][]byte, n)
	for i := range callers {
		callers[i], bodies[i] = newLeanCaller("/v1/predict"), []byte(scenarioJSON(space.Scenario(i)))
		if status := callers[i].post(rt.Handler(), bodies[i]); status != http.StatusOK {
			b.Fatalf("warm-up predict returned %d: %s", status, callers[i].reply)
		}
	}
	return rt.Handler(), callers, bodies
}

// driveLatencies runs one closed-loop client per caller, each sending
// its own body, until b.N predicts have been answered, and reports the
// per-request latency percentiles (p50-us, p99-us, p999-us).
func driveLatencies(b *testing.B, h http.Handler, callers []*leanCaller, bodies [][]byte) {
	var next atomic.Int64
	var wg sync.WaitGroup
	lat := make([][]time.Duration, len(callers))
	b.ReportAllocs()
	b.ResetTimer()
	for c := range callers {
		lat[c] = make([]time.Duration, 0, b.N/len(callers)+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				start := time.Now()
				if status := callers[c].post(h, bodies[c]); status != http.StatusOK {
					b.Errorf("predict returned %d: %s", status, callers[c].reply)
					return
				}
				lat[c] = append(lat[c], time.Since(start))
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	all := slices.Concat(lat...)
	if len(all) == 0 {
		return
	}
	slices.Sort(all)
	for _, q := range []struct {
		unit string
		q    float64
	}{{"p50-us", 0.50}, {"p99-us", 0.99}, {"p999-us", 0.999}} {
		b.ReportMetric(float64(all[int(q.q*float64(len(all)-1))])/1e3, q.unit)
	}
}

// TestRoutedPredictAllocs guards the allocations of one routed predict
// under the default Config, both tiers counted: 63 measured on go1.24,
// fewer than a bare http.Client round trip to a handler that writes a
// short reply (86), since the router makes its backend call on its own
// keep-alive connection (one write, the reply parsed by
// http.ReadResponse) and builds no http.Request for it.
// A router that decodes the request, re-encodes the reply, starts a
// goroutine or arms a timer per predict does not pass.
func TestRoutedPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const bound = 63
	h, callers, bodies := routedPredict(t, cluster.Config{}, 1)
	allocs := testing.AllocsPerRun(500, func() {
		if status := callers[0].post(h, bodies[0]); status != http.StatusOK {
			t.Fatalf("predict returned %d", status)
		}
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > bound {
		t.Errorf("one routed predict costs %.0f allocations, want <= %d", allocs, bound)
	}
}
