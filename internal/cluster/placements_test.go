package cluster

import (
	"net/http"
	"strings"
	"testing"
)

const placementsBody = `{"machines":[{"count":2}],"apps":["cg","ep"],"seed":3,"beam":4}`

func TestPlacementsRoutesLeastLoaded(t *testing.T) {
	a := newFakeBackend(t, "a")
	b := newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{}, a, b)

	// Equal load: the name tiebreak routes to "a".
	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/placements", placementsBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Backend"); got != "a" {
		t.Fatalf("routed to %q, want a", got)
	}

	// Load "a" with two outstanding calls: the next request must go to
	// the less-loaded "b".
	ba := rt.Pool().Get("a")
	ba.acquire()
	ba.acquire()
	defer ba.release()
	defer ba.release()
	rec = doReq(t, rt.Handler(), http.MethodPost, "/v1/placements", placementsBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Backend"); got != "b" {
		t.Fatalf("routed to %q under load, want b", got)
	}
	if a.placements.Load() != 1 || b.placements.Load() != 1 {
		t.Fatalf("backend calls a=%d b=%d, want 1/1", a.placements.Load(), b.placements.Load())
	}
}

func TestPlacementsStreamsThrough(t *testing.T) {
	a := newFakeBackend(t, "a")
	rt := newTestRouter(t, Config{}, a)
	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/placements", placementsBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q not passed through", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d NDJSON lines, want 2: %q", len(lines), rec.Body.String())
	}
	if !strings.Contains(lines[1], `"final":true`) {
		t.Fatalf("terminal line not final: %q", lines[1])
	}
	if rec.Header().Get("X-Request-ID") == "" {
		t.Fatal("missing X-Request-ID")
	}
}

func TestPlacementsFailsOverOnDrain(t *testing.T) {
	a := newFakeBackend(t, "a")
	b := newFakeBackend(t, "b")
	rt := newTestRouter(t, Config{}, a, b)
	a.drain.Store(true)

	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/placements", placementsBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Backend"); got != "b" {
		t.Fatalf("routed to %q, want failover to b", got)
	}
	// The drain shed marked "a" shedding in the pool.
	if st := rt.Pool().Get("a").State(); st != StateShedding {
		t.Fatalf("backend a state %v, want shedding", st)
	}
}

func TestPlacementsNoBackendIs503(t *testing.T) {
	a := newFakeBackend(t, "a")
	rt := newTestRouter(t, Config{}, a)
	a.drain.Store(true)

	// First request discovers the drain (failover exhausts the fleet).
	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/placements", placementsBody, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("missing Retry-After on retryable 503")
	}
	// Once marked shedding, the route has no admissible candidates.
	rec = doReq(t, rt.Handler(), http.MethodPost, "/v1/placements", placementsBody, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
}

func TestInflightGaugeReturnsToZero(t *testing.T) {
	a := newFakeBackend(t, "a")
	rt := newTestRouter(t, Config{}, a)
	for i := 0; i < 3; i++ {
		doReq(t, rt.Handler(), http.MethodPost, "/v1/placements", placementsBody, nil)
		doReq(t, rt.Handler(), http.MethodPost, "/v1/predict", predictBody(testScenario), nil)
	}
	if got := rt.Pool().Get("a").Inflight(); got != 0 {
		t.Fatalf("inflight gauge %d after requests completed, want 0", got)
	}
}
