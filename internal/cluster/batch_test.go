package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"colocmodel/internal/serve"
)

// TestRoutedBatchIsTheNodesBatch: whatever a batch request holds, the
// router's answer — status, Content-Type, body bytes — is the answer
// the same bytes get from the backend that served them, under X-Backend
// and a Server-Timing that leads with the router's route stage. The
// owner-scatter this replaced accepted a batch over the node's limit
// (every shard was under it) and turned a backend's typed 400 into a 200
// with every slot labelled backend_unavailable.
func TestRoutedBatchIsTheNodesBatch(t *testing.T) {
	m := edgeTestModel(t)
	rt := New(Config{})
	nodes := map[string]*httptest.Server{}
	for _, name := range []string{"a", "b", "c"} {
		reg := serve.NewRegistry()
		if err := reg.Add("primary", "", m); err != nil {
			t.Fatal(err)
		}
		nodes[name] = httptest.NewServer(serve.New(reg, serve.Config{}).Handler())
		t.Cleanup(nodes[name].Close)
		if err := rt.Pool().Add(name, nodes[name].URL); err != nil {
			t.Fatal(err)
		}
	}
	rt.pool.ProbeAll(context.Background())

	row := `{"target":"cg","co_apps":["ep"],"pstate":0}`
	for _, c := range []struct {
		name, body string
		status     int
	}{
		{"valid mixed batch", `{"scenarios":[` + row + `,{"target":"ep","co_apps":["cg","cg"],"pstate":0},{"target":"ep","co_apps":[],"pstate":0}]}`, http.StatusOK},
		{"unknown app and out-of-range P-state in some slots",
			`{"scenarios":[` + row + `,{"target":"ghost","co_apps":["ep"],"pstate":0},{"target":"cg","co_apps":["ep"],"pstate":7},` + row + `]}`, http.StatusOK},
		{"no scenarios", `{"scenarios":[]}`, http.StatusBadRequest},
		{"one row over the node's limit", `{"scenarios":[` + strings.Repeat(row+",", 4096) + row + `]}`, http.StatusBadRequest},
		{"unknown model", `{"model":"ghost","scenarios":[` + row + `]}`, http.StatusBadRequest},
		{"type error inside a scenario", `{"scenarios":[{"target":"cg","co_apps":"ep","pstate":0}]}`, http.StatusBadRequest},
	} {
		rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict/batch", c.body, nil)
		node := nodes[rec.Header().Get("X-Backend")]
		if node == nil {
			t.Fatalf("%s: X-Backend %q names no backend (status %d: %s)", c.name, rec.Header().Get("X-Backend"), rec.Code, rec.Body.String())
		}
		resp, err := http.Post(node.URL+"/v1/predict/batch", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		want, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.status {
			t.Fatalf("%s: the node answers %d, the case expects %d: %s", c.name, resp.StatusCode, c.status, want)
		}
		if rec.Code != resp.StatusCode || rec.Header().Get("Content-Type") != resp.Header.Get("Content-Type") || rec.Body.String() != string(want) {
			t.Errorf("%s: routed %d %q %s\n\tthe node itself %d %q %s", c.name, rec.Code, rec.Header().Get("Content-Type"), truncate(rec.Body.Bytes(), 300),
				resp.StatusCode, resp.Header.Get("Content-Type"), truncate(want, 300))
		}
		if st := rec.Header().Get("Server-Timing"); !strings.HasPrefix(st, "route;dur=") || !strings.Contains(st, "backend;dur=") {
			t.Errorf("%s: Server-Timing %q, want the hop's route and backend stages in front", c.name, st)
		}
	}

	// Bytes that are not JSON have no model to route by: the router's own
	// typed 400, and no backend is asked.
	rec := doReq(t, rt.Handler(), http.MethodPost, "/v1/predict/batch", `{"scenarios":[`, nil)
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusBadRequest || eb.Error.Code != CodeBadRequest || rec.Header().Get("X-Backend") != "" {
		t.Fatalf("malformed body: %d %s from %q, want the router's own bad_request", rec.Code, rec.Body.String(), rec.Header().Get("X-Backend"))
	}
}
