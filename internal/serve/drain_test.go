package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"colocmodel/internal/features"
)

// TestDrainSheds503 pins the typed drain shed the cluster router keys
// off: once a server starts draining, every endpoint answers 503 with
// the stable code "draining" and a Retry-After header, so a gateway can
// tell "alive but refusing" (re-route, don't eject) from "dead".
func TestDrainSheds503(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	sc := features.Scenario{Target: "canneal", CoApps: []string{"cg"}, PState: 0}
	body := PredictRequest{ScenarioRequest: ScenarioRequest{Target: sc.Target, CoApps: sc.CoApps, PState: sc.PState}}

	if w := postJSON(t, h, "/v1/predict", body); w.Code != http.StatusOK {
		t.Fatalf("predict before drain returned %d", w.Code)
	}
	if s.draining.Load() {
		t.Fatal("server reports draining before StartDrain")
	}

	s.StartDrain()
	if !s.draining.Load() {
		t.Fatal("server does not report draining after StartDrain")
	}
	for _, probe := range []struct {
		method, path string
	}{
		{http.MethodPost, "/v1/predict"},
		{http.MethodGet, "/healthz"}, // the cluster probe path
	} {
		var w *httptest.ResponseRecorder
		if probe.method == http.MethodPost {
			w = postJSON(t, h, probe.path, body)
		} else {
			w = get(t, h, probe.path)
		}
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s during drain returned %d, want 503", probe.method, probe.path, w.Code)
		}
		if got := w.Header().Get("Retry-After"); got == "" {
			t.Fatalf("%s during drain missing Retry-After header", probe.path)
		}
		if got := errCode(t, w); got != CodeDraining {
			t.Fatalf("%s during drain answered code %q, want %q", probe.path, got, CodeDraining)
		}
		if got := w.Header().Get("X-Request-ID"); got == "" {
			t.Fatalf("%s during drain lost the request-ID contract", probe.path)
		}
	}
	// /v1/version still reports state: Draining is how peers see a
	// backend winding down without racing its socket close.
	w := get(t, h, "/v1/version")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("version during drain returned %d, want the shed too", w.Code)
	}
}
