package loadgen

// The cluster soaks promised by the scale-out tier: the loadgen harness
// drives the colorouter gateway in process (the router still reaches
// its coloserve replicas over loopback HTTP), so one seeded soak
// exercises consistent-hash routing, hedging, whole-batch forwarding,
// health probing and rolling promotion end to end — under -race in CI.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"colocmodel/internal/cluster"
	"colocmodel/internal/serve"
)

// newClusterTarget assembles n soak replicas behind a router. The probe
// loop is started with a long interval; tests that need probe
// transitions step ProbeAll explicitly.
func newClusterTarget(t *testing.T, n int, cfg cluster.Config) *ClusterTarget {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour // deterministic: tests step probes themselves
	}
	ct, err := NewClusterTarget(ctx, cfg, n, func(int) (*serve.Server, error) {
		return newSoakServer(t), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ct.Close)
	return ct
}

// TestClusterSoakInProcess is the CI cluster soak: a request-bounded
// closed-loop run with a mixed predict / batch / observe / reload
// stream against a 3-replica fleet. Reload ops become rolling
// promotions rolled by the router, so generation floors, probe
// refreshes, batch forwarding and the observation scatter are all live
// under concurrency. Any 5xx or transport error fails the gate;
// generation monotonicity is checked per worker.
func TestClusterSoakInProcess(t *testing.T) {
	ct := newClusterTarget(t, 3, cluster.Config{Replicas: 2})
	space := soakSpace(t, ct.Servers[0])

	const requests = 2000
	rep, err := Run(Config{
		Mode:        ClosedLoop,
		Concurrency: 8,
		Duration:    time.Minute, // the request budget ends the run
		Requests:    requests,
		Seed:        42,
		Mix: Mix{
			ZipfSkew:        1.1,
			PredictWeight:   8,
			BatchWeight:     1,
			ObserveWeight:   2,
			ReloadWeight:    0.25,
			PlacementWeight: 0.5,
			BatchSize:       8,
		},
		CheckGenerations: true,
	}, ct.Doer(), space)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != requests {
		t.Fatalf("measured %d requests, want %d", rep.Requests, requests)
	}
	if rep.Status4xx != 0 || rep.Status5xx != 0 || rep.TransportErrors != 0 {
		t.Fatalf("cluster soak saw errors: 4xx=%d 5xx=%d transport=%d (rate %.4f)",
			rep.Status4xx, rep.Status5xx, rep.TransportErrors, rep.ErrorRate)
	}
	if rep.GenerationRegressions != 0 {
		t.Fatalf("%d generation regressions: a client was routed to a stale backend", rep.GenerationRegressions)
	}
	for _, kind := range []string{OpPredict, OpBatch, OpObserve, OpReload, OpPlacements} {
		if rep.PerOp[kind] == 0 {
			t.Errorf("op kind %q absent from the soak (per_op: %v)", kind, rep.PerOp)
		}
	}
	// Consistent hashing actually spread the load: every replica served.
	m := ct.Router.Metrics()
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("b%d", i)
		if got := m.BackendRequests(name); got == 0 {
			t.Errorf("backend %s received no proxied requests", name)
		}
	}
	// Rolling promotions converged: every replica's registry advanced in
	// lockstep to the same generation.
	gen := ct.Servers[0].Registry().List()[0].Generation
	if gen < 2 {
		t.Fatalf("generation still %d after %d reload ops", gen, rep.PerOp[OpReload])
	}
	for i, s := range ct.Servers {
		if g := s.Registry().List()[0].Generation; g != gen {
			t.Fatalf("replica %d at generation %d, replica 0 at %d: rollout did not converge", i, g, gen)
		}
	}
	// The router's Server-Timing hop stages reached the report.
	if _, ok := rep.ServerStages["backend"]; !ok {
		t.Errorf("report missing the router's 'backend' hop stage (stages: %v)", rep.ServerStages)
	}
	if v := rep.Gate(SLO{MaxErrorRate: 0, MinThroughput: 1}); len(v) != 0 {
		t.Fatalf("SLO violations: %v", v)
	}
}

// TestClusterRollingPromotionMonotone is the generation-monotonicity
// soak: concurrent identified clients stream predictions while rolling
// promotions sweep the fleet; no client may ever observe the serving
// generation decrease. This is the per-client floor doing its job — the
// fleet serves mixed generations mid-rollout, the clients never see it.
func TestClusterRollingPromotionMonotone(t *testing.T) {
	ct := newClusterTarget(t, 3, cluster.Config{Replicas: 2})
	space := soakSpace(t, ct.Servers[0])
	h := ct.Router.Handler()

	do := func(method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("")
		} else {
			rd = strings.NewReader(body)
		}
		req := httptest.NewRequest(method, path, rd)
		req.Header.Set("Content-Type", "application/json")
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	const clients, perClient = 6, 120
	var wg sync.WaitGroup
	errc := make(chan error, clients+1)
	done := make(chan struct{})

	// Promotion writer: rolls reloads across the fleet back-to-back.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				errc <- nil
				return
			default:
			}
			if rec := do(http.MethodPost, "/v1/models/reload", "", nil); rec.Code != http.StatusOK {
				errc <- fmt.Errorf("rolling promotion returned %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()

	var clientsWG sync.WaitGroup
	for c := 0; c < clients; c++ {
		clientsWG.Add(1)
		go func(c int) {
			defer clientsWG.Done()
			hdr := map[string]string{"X-Client-ID": fmt.Sprintf("client-%d", c)}
			var last uint64
			for i := 0; i < perClient; i++ {
				sc := space.Scenario((c*perClient + i) % space.Size())
				co := ""
				if len(sc.CoApps) > 0 {
					co = `"co_apps":["` + strings.Join(sc.CoApps, `","`) + `"],`
				}
				body := fmt.Sprintf(`{"target":%q,%s"pstate":%d}`, sc.Target, co, sc.PState)
				rec := do(http.MethodPost, "/v1/predict", body, hdr)
				if rec.Code != http.StatusOK {
					errc <- fmt.Errorf("client %d predict returned %d: %s", c, rec.Code, rec.Body.String())
					return
				}
				var resp struct {
					Generation uint64 `json:"generation"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					errc <- err
					return
				}
				if resp.Generation < last {
					errc <- fmt.Errorf("client %d observed generation %d after %d: mixed-generation window leaked",
						c, resp.Generation, last)
					return
				}
				last = resp.Generation
			}
			errc <- nil
		}(c)
	}
	clientsWG.Wait()
	close(done)
	wg.Wait()
	for i := 0; i < clients+1; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	// The promotions actually happened (the invariant is vacuous on a
	// fleet that never moved).
	if gen := ct.Servers[0].Registry().List()[0].Generation; gen < 2 {
		t.Fatal("promotion writer never advanced the fleet; monotonicity coverage lost")
	}
}

// TestClusterRoutingAffinityUnderJoin checks the stable-routing
// property at the system level: with hedging off and a healthy fleet,
// each scenario is always served by its ring owner; joining a fourth
// replica moves only the scenarios the newcomer takes over, and every
// other scenario keeps its backend through scale-out.
func TestClusterRoutingAffinityUnderJoin(t *testing.T) {
	ct := newClusterTarget(t, 3, cluster.Config{Replicas: 2, HedgeAfter: -1})
	space := soakSpace(t, ct.Servers[0])
	h := ct.Router.Handler()

	serving := func() map[int]string {
		owners := make(map[int]string, space.Size())
		for i := 0; i < space.Size(); i++ {
			sc := space.Scenario(i)
			co := ""
			if len(sc.CoApps) > 0 {
				co = `"co_apps":["` + strings.Join(sc.CoApps, `","`) + `"],`
			}
			body := fmt.Sprintf(`{"target":%q,%s"pstate":%d}`, sc.Target, co, sc.PState)
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("predict %d returned %d: %s", i, rec.Code, rec.Body.String())
			}
			owners[i] = rec.Header().Get("X-Backend")
		}
		return owners
	}

	before := serving()
	// Second pass without membership change: placement is sticky.
	for i, owner := range serving() {
		if before[i] != owner {
			t.Fatalf("scenario %d moved %s -> %s with no membership change", i, before[i], owner)
		}
	}

	// Join a fourth replica and probe it in.
	extra := newSoakServer(t)
	ts := httptest.NewServer(extra.Handler())
	t.Cleanup(ts.Close)
	if err := ct.Router.Pool().Add("b3", ts.URL); err != nil {
		t.Fatal(err)
	}
	ct.Router.Pool().ProbeAll(context.Background())

	after := serving()
	moved := 0
	for i, owner := range after {
		if owner != before[i] {
			moved++
			if owner != "b3" {
				t.Fatalf("scenario %d moved %s -> %s on join of b3: only the newcomer's ranges may move",
					i, before[i], owner)
			}
		}
	}
	if moved == 0 {
		t.Skip("no scenario hashed to the new replica (tiny space); ring-level join coverage lives in internal/cluster")
	}
	if frac := float64(moved) / float64(len(after)); frac > 0.60 {
		t.Fatalf("join moved %.0f%% of scenarios, want a bounded share", frac*100)
	}
}
