package loadgen

// The cluster soaks promised by the scale-out tier: the loadgen harness
// drives the colorouter gateway in process (the router still reaches
// its coloserve replicas over loopback HTTP), so one seeded soak
// exercises least-loaded routing, failover, whole-request forwarding,
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
// refreshes, batch and observation forwarding are all live
// under concurrency. Any failed request fails the gate; generation
// monotonicity is checked per worker.
func TestClusterSoakInProcess(t *testing.T) {
	ct := newClusterTarget(t, 3, cluster.Config{Replicas: 2})
	space := soakSpace(t, ct.Servers[0])

	const requests = 2000
	rep, err := Run(Config{
		Requests: requests,
		Seed:     42,
		Mix: Mix{
			ZipfSkew:        1.1,
			PredictWeight:   8,
			BatchWeight:     1,
			ObserveWeight:   2,
			ReloadWeight:    0.25,
			PlacementWeight: 0.5,
			BatchSize:       8,
		},
	}, ct.Doer(), space)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != requests {
		t.Fatalf("issued %d requests, want %d", rep.Requests, requests)
	}
	if v := rep.Gate(); len(v) != 0 {
		t.Fatalf("cluster soak failed: %v", v)
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
	// The router's Server-Timing hop stages reached the client.
	if rep.Stages["backend"] == 0 {
		t.Errorf("no reply named the router's 'backend' hop stage (stages: %v)", rep.Stages)
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
