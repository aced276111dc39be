package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"colocmodel/internal/core"
	"colocmodel/internal/drift"
	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/retrain"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

// testDataset collects one reduced 6-core dataset per process.
var (
	dsOnce sync.Once
	dsVal  *harness.Dataset
	dsErr  error
)

func testDataset(t testing.TB) *harness.Dataset {
	t.Helper()
	dsOnce.Do(func() {
		cg, _ := workload.ByName("cg")
		ep, _ := workload.ByName("ep")
		canneal, _ := workload.ByName("canneal")
		plan := harness.Plan{
			Spec:       simproc.XeonE5649(),
			Targets:    []workload.App{cg, canneal, ep},
			CoApps:     []workload.App{cg, ep},
			CoCounts:   []int{1, 3},
			PStates:    []int{0, 1},
			NoiseSigma: 0.01,
			Seed:       7,
		}
		dsVal, dsErr = harness.Collect(plan)
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsVal
}

// testModel trains a linear-F model (fast and deterministic).
func testModel(t testing.TB, seed uint64) *core.Model {
	t.Helper()
	ds := testDataset(t)
	set, err := features.SetByName("F")
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(core.Spec{Technique: core.Linear, FeatureSet: set, Seed: seed}, ds, ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newTestServer builds a server with one model named "primary".
func newTestServer(t testing.TB, cfg Config) (*Server, *core.Model) {
	t.Helper()
	m := testModel(t, 1)
	reg := NewRegistry()
	if err := reg.Add("primary", "", m); err != nil {
		t.Fatal(err)
	}
	return New(reg, cfg), m
}

func postJSON(t testing.TB, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t testing.TB, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func decodeBody[T any](t testing.TB, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding response %q: %v", w.Body.String(), err)
	}
	return v
}

// errCode extracts the typed error code of a failure response.
func errCode(t testing.TB, w *httptest.ResponseRecorder) string {
	t.Helper()
	return decodeBody[errorBody](t, w).Error.Code
}

func TestPredictMatchesModel(t *testing.T) {
	s, m := newTestServer(t, Config{})
	h := s.Handler()
	sc := features.Scenario{Target: "canneal", CoApps: []string{"cg", "cg"}, PState: 1}
	w := postJSON(t, h, "/v1/predict", PredictRequest{
		ScenarioRequest: ScenarioRequest{Target: sc.Target, CoApps: sc.CoApps, PState: sc.PState},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeBody[PredictResponse](t, w)
	wantSec, err := m.Predict(sc)
	if err != nil {
		t.Fatal(err)
	}
	wantSd, err := m.PredictedSlowdown(sc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resp.PredictedSeconds-wantSec) > 1e-9 {
		t.Fatalf("predicted_seconds %v, model says %v", resp.PredictedSeconds, wantSec)
	}
	if math.Abs(resp.PredictedSlowdown-wantSd) > 1e-9 {
		t.Fatalf("predicted_slowdown %v, model says %v", resp.PredictedSlowdown, wantSd)
	}
	if resp.Cached {
		t.Fatal("a reply claims a cache hit; the server has no cache")
	}
	if resp.Model != "primary" || resp.Spec != "linear-F" {
		t.Fatalf("identity wrong: %+v", resp)
	}
}

func TestPredictValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name string
		req  PredictRequest
		code string
		msg  string
	}{
		{"unknown target", PredictRequest{ScenarioRequest: ScenarioRequest{Target: "ghost", PState: 0}}, CodeUnknownApp,
			`unknown target "ghost" (known: canneal, cg, ep)`},
		{"unknown co-app", PredictRequest{ScenarioRequest: ScenarioRequest{Target: "cg", CoApps: []string{"ghost"}, PState: 0}}, CodeUnknownApp,
			`unknown co-app "ghost" (known: canneal, cg, ep)`},
		{"bad pstate", PredictRequest{ScenarioRequest: ScenarioRequest{Target: "cg", PState: 99}}, CodeBadPState, "P-state 99 out of range [0,6)"},
		{"negative pstate", PredictRequest{ScenarioRequest: ScenarioRequest{Target: "cg", PState: -1}}, CodeBadPState, "P-state -1 out of range [0,6)"},
		{"empty target", PredictRequest{}, CodeBadRequest, "target must be set"},
		{"unknown model", PredictRequest{Model: "ghost", ScenarioRequest: ScenarioRequest{Target: "cg"}}, CodeUnknownModel,
			`unknown model "ghost" (see GET /v1/models)`},
	}
	for _, tc := range cases {
		w := postJSON(t, h, "/v1/predict", tc.req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, w.Code, w.Body.String())
			continue
		}
		if e := decodeBody[errorBody](t, w).Error; e.Code != tc.code || e.Message != tc.msg {
			t.Errorf("%s: error %+v, want %s: %s", tc.name, e, tc.code, tc.msg)
		}
	}
	// Malformed JSON and unknown fields are client errors too.
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader("{not json"))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", w.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(`{"target":"cg","bogus":1}`))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", w.Code)
	}
	// Wrong method.
	if w := get(t, h, "/v1/predict"); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: status %d, want 405", w.Code)
	}
}

func postRaw(h http.Handler, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return w
}

// Strict decoding rejects anything but whitespace after the first JSON
// value, on every endpoint that decodes a body: through the fast decoder
// (canonical predict bodies) and through encoding/json (the rest) alike.
func TestTrailingDataRejected(t *testing.T) {
	s, _, _ := newAdaptiveServer(t, drift.Config{}, retrain.Config{})
	h := s.Handler()
	bodies := map[string]string{
		"/v1/predict":       `{"target":"cg","co_apps":["ep"],"pstate":0}`,
		"/v1/predict/batch": `{"scenarios":[{"target":"cg","co_apps":["ep"],"pstate":0}]}`,
		"/v1/schedule":      `{"jobs":["cg","ep"],"max_slowdown":1.5}`,
		"/v1/placements":    `{"apps":["cg","ep"],"machines":[{}]}`,
		"/v1/observations":  `{"target":"cg","co_apps":["ep"],"pstate":0,"measured_seconds":100}`,
		"/v1/retrain":       `{"reason":"test"}`,
	}
	for path, body := range bodies {
		for _, ok := range []string{body, body + " \n\t\r", "  " + body} {
			if w := postRaw(h, path, ok); w.Code >= 300 {
				t.Errorf("%s %q: status %d, want 2xx (body %s)", path, ok, w.Code, w.Body.String())
			}
		}
		for _, tail := range []string{"xyz", "{}", " 1", "\n" + body, "}", ","} {
			w := postRaw(h, path, body+tail)
			if w.Code != http.StatusBadRequest {
				t.Errorf("%s with trailing %q: status %d, want 400 (body %s)", path, tail, w.Code, w.Body.String())
				continue
			}
			if c := errCode(t, w); c != CodeBadRequest {
				t.Errorf("%s with trailing %q: code %q, want %q", path, tail, c, CodeBadRequest)
			}
		}
	}
	// A predict body the fast decoder hands to encoding/json (an escape
	// in a string) is held to the same rule.
	if w := postRaw(h, "/v1/predict", `{"target":"c\u0067","pstate":0}xyz`); w.Code != http.StatusBadRequest {
		t.Errorf("fallback path with trailing data: status %d, want 400", w.Code)
	}
	if w := postRaw(h, "/v1/predict", `{"target":"c\u0067","pstate":0} `); w.Code != http.StatusOK {
		t.Errorf("fallback path with trailing space: status %d, want 200 (body %s)", w.Code, w.Body.String())
	}
}

// countingBody serves n bytes of JSON whitespace and counts what was
// actually read of it.
type countingBody struct {
	n, read int
}

func (b *countingBody) Read(p []byte) (int, error) {
	if b.read >= b.n {
		return 0, io.EOF
	}
	k := min(len(p), b.n-b.read)
	for i := range p[:k] {
		p[i] = ' '
	}
	b.read += k
	return k, nil
}

func (b *countingBody) Close() error { return nil }

// An oversized body is a typed 413 on every decoding endpoint. When the
// client declares its length nothing is read; when it does not, the read
// stops one byte past the bound and the buffer never grows beyond it.
func TestOversizedBodyRejected(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	for _, path := range []string{"/v1/predict", "/v1/predict/batch", "/v1/schedule", "/v1/placements"} {
		for _, declared := range []bool{true, false} {
			body := &countingBody{n: 64 << 20}
			req := httptest.NewRequest(http.MethodPost, path, nil)
			req.Body = body
			req.ContentLength = -1
			if declared {
				req.ContentLength = int64(body.n)
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s declared=%v: status %d, want 413 (body %s)", path, declared, w.Code, w.Body.String())
			}
			if c := errCode(t, w); c != CodeBodyTooLarge {
				t.Fatalf("%s declared=%v: code %q, want %q", path, declared, c, CodeBodyTooLarge)
			}
			if want := map[bool]int{true: 0, false: maxBodyBytes + 1}[declared]; body.read != want {
				t.Fatalf("%s declared=%v: read %d bytes of the body, want %d", path, declared, body.read, want)
			}
		}
	}
	// A body of exactly the bound is read in full and reaches the decoder
	// (all whitespace: the decoder's EOF, not a 413).
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	req.Body, req.ContentLength = &countingBody{n: maxBodyBytes}, -1
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "EOF") {
		t.Fatalf("body at the bound: status %d body %s, want the decoder's 400", w.Code, w.Body.String())
	}
}

// readBody's buffer growth is clamped at the bound: however the body
// arrives, the buffer it returns never has capacity past maxBodyBytes+1.
func TestReadBodyBuffersAtMostTheBound(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, maxBodyBytes - 1, maxBodyBytes} {
		buf, e := readBody(&countingBody{n: n}, nil)
		if e != nil || len(buf) != n {
			t.Fatalf("body of %d: read %d, error %v", n, len(buf), e)
		}
		if cap(buf) > maxBodyBytes+1 {
			t.Fatalf("body of %d: buffer grew to %d", n, cap(buf))
		}
	}
	for _, n := range []int{maxBodyBytes + 1, 4 * maxBodyBytes} {
		body := &countingBody{n: n}
		buf, e := readBody(iotest.OneByteReader(body), make([]byte, 0, 16))
		if e == nil || e.Status != http.StatusRequestEntityTooLarge {
			t.Fatalf("body of %d: error %v, want 413", n, e)
		}
		if cap(buf) > maxBodyBytes+1 || body.read != maxBodyBytes+1 {
			t.Fatalf("body of %d: buffer cap %d after reading %d bytes", n, cap(buf), body.read)
		}
	}
	// A transport error surfaces as the decoder's 400, as it did when
	// encoding/json read the body itself.
	_, e := readBody(iotest.ErrReader(io.ErrUnexpectedEOF), nil)
	if e == nil || e.Status != http.StatusBadRequest || e.Message != "decoding request body: unexpected EOF" {
		t.Fatalf("read error: %v", e)
	}
}

func TestPredictBatch(t *testing.T) {
	s, m := newTestServer(t, Config{})
	h := s.Handler()
	req := BatchRequest{Scenarios: []ScenarioRequest{
		{Target: "canneal", CoApps: []string{"cg"}, PState: 0},
		{Target: "ghost", PState: 0},
		{Target: "ep", CoApps: []string{"cg", "cg", "cg"}, PState: 1},
		{Target: "cg", PState: 99},
	}}
	w := postJSON(t, h, "/v1/predict/batch", req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeBody[BatchResponse](t, w)
	if len(resp.Results) != 4 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	if resp.Errors != 2 {
		t.Fatalf("errors = %d, want 2", resp.Errors)
	}
	if resp.Results[0].Result == nil || resp.Results[2].Result == nil {
		t.Fatal("valid slots failed")
	}
	if resp.Results[1].Error == nil || resp.Results[1].Error.Code != CodeUnknownApp {
		t.Fatalf("slot 1 error = %+v", resp.Results[1].Error)
	}
	if resp.Results[3].Error == nil || resp.Results[3].Error.Code != CodeBadPState {
		t.Fatalf("slot 3 error = %+v", resp.Results[3].Error)
	}
	// Slot order is preserved: slot 2 matches a direct prediction.
	want, err := m.Predict(features.Scenario{Target: "ep", CoApps: []string{"cg", "cg", "cg"}, PState: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Results[2].Result.PredictedSeconds; math.Abs(got-want) > 1e-9 {
		t.Fatalf("slot 2 prediction %v, want %v", got, want)
	}
}

func TestPredictBatchLimits(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 2})
	h := s.Handler()
	if w := postJSON(t, h, "/v1/predict/batch", BatchRequest{}); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", w.Code)
	}
	big := BatchRequest{Scenarios: make([]ScenarioRequest, 3)}
	if w := postJSON(t, h, "/v1/predict/batch", big); w.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d", w.Code)
	}
}

func TestSchedule(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	req := ScheduleRequest{
		Jobs:        []string{"canneal", "cg", "cg", "ep", "ep", "ep"},
		MaxSlowdown: 1.25,
		PState:      0,
	}
	w := postJSON(t, h, "/v1/schedule", req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeBody[ScheduleResponse](t, w)
	if resp.Jobs != 6 {
		t.Fatalf("placed %d jobs, want 6", resp.Jobs)
	}
	if resp.MachinesUsed < 1 || resp.MachinesUsed > 6 {
		t.Fatalf("machines used = %d", resp.MachinesUsed)
	}
	if resp.Machine != "Xeon E5649" {
		t.Fatalf("machine inferred as %q", resp.Machine)
	}

	for name, bad := range map[string]ScheduleRequest{
		"empty jobs":     {MaxSlowdown: 1.2},
		"unknown job":    {Jobs: []string{"ghost"}, MaxSlowdown: 1.2},
		"bad bound":      {Jobs: []string{"cg"}, MaxSlowdown: 1.0},
		"bad pstate":     {Jobs: []string{"cg"}, MaxSlowdown: 1.2, PState: 99},
		"unknown fleet":  {Jobs: []string{"cg"}, MaxSlowdown: 1.2, Machine: "pentium"},
		"unknown model2": {Model: "ghost", Jobs: []string{"cg"}, MaxSlowdown: 1.2},
	} {
		if w := postJSON(t, h, "/v1/schedule", bad); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, w.Code)
		}
	}
}

func TestModelsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if err := s.Registry().Add("alt", "", testModel(t, 2)); err != nil {
		t.Fatal(err)
	}
	w := get(t, s.Handler(), "/v1/models")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	resp := decodeBody[ModelsResponse](t, w)
	if resp.Default != "primary" || len(resp.Models) != 2 {
		t.Fatalf("listing wrong: %+v", resp)
	}
	// Sorted by name; default flagged; introspection filled in.
	if resp.Models[0].Name != "alt" || resp.Models[1].Name != "primary" {
		t.Fatalf("order wrong: %+v", resp.Models)
	}
	if !resp.Models[1].Default || resp.Models[0].Default {
		t.Fatal("default flag wrong")
	}
	if resp.Models[1].Machine != "Xeon E5649" || resp.Models[1].PStates != 6 || len(resp.Models[1].Apps) != 3 {
		t.Fatalf("introspection wrong: %+v", resp.Models[1])
	}
}

func TestHealthz(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if w := get(t, s.Handler(), "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	empty := New(NewRegistry(), Config{})
	if w := get(t, empty.Handler(), "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty registry health = %d, want 503", w.Code)
	}
	// Predict against an empty registry is a 503, not a panic.
	w := postJSON(t, empty.Handler(), "/v1/predict", PredictRequest{ScenarioRequest: ScenarioRequest{Target: "cg"}})
	if e := decodeBody[errorBody](t, w).Error; w.Code != http.StatusServiceUnavailable || e.Code != CodeUnknownModel || e.Message != "no models loaded" {
		t.Fatalf("empty registry predict = %d %+v, want 503 unknown_model: no models loaded", w.Code, e)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	_ = postJSON(t, h, "/v1/predict", PredictRequest{ScenarioRequest: ScenarioRequest{Target: "cg", PState: 0}})
	_ = postJSON(t, h, "/v1/predict", PredictRequest{ScenarioRequest: ScenarioRequest{Target: "ghost", PState: 0}})
	w := get(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		`coloserve_requests_total{endpoint="predict"} 2`,
		`coloserve_request_errors_total{endpoint="predict"} 1`,
		`coloserve_request_duration_seconds_bucket{endpoint="predict",le="+Inf"} 2`,
		`coloserve_models_loaded 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestReloadEndpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	m := testModel(t, 1)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add("disk", path, m); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	h := s.Handler()

	w := postJSON(t, h, "/v1/models/reload", struct{}{})
	if w.Code != http.StatusOK {
		t.Fatalf("reload status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeBody[ReloadResponse](t, w)
	if len(resp.Reloaded) != 1 || resp.Reloaded[0] != "disk" {
		t.Fatalf("reloaded = %v", resp.Reloaded)
	}
	infos := reg.List()
	if infos[0].Generation != 2 {
		t.Fatalf("generation = %d, want 2 after reload", infos[0].Generation)
	}

	// Corrupt artefact: reload fails, the old model keeps serving.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if w := postJSON(t, h, "/v1/models/reload", struct{}{}); w.Code != http.StatusInternalServerError {
		t.Fatalf("corrupt reload status %d, want 500", w.Code)
	}
	pw := postJSON(t, h, "/v1/predict", PredictRequest{ScenarioRequest: ScenarioRequest{Target: "cg", PState: 0}})
	if pw.Code != http.StatusOK {
		t.Fatalf("predict after failed reload: %d", pw.Code)
	}
}

// TestConcurrentPredictAndHotSwap hammers the predict path from many
// goroutines while models are hot-swapped underneath — the scenario the
// registry's atomic design exists for. Run under -race.
func TestConcurrentPredictAndHotSwap(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	replacement := testModel(t, 99)

	const clients = 8
	const perClient = 40
	var wg sync.WaitGroup
	errs := make(chan string, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			targets := []string{"cg", "ep", "canneal"}
			for i := 0; i < perClient; i++ {
				req := PredictRequest{ScenarioRequest: ScenarioRequest{
					Target: targets[(c+i)%len(targets)],
					CoApps: []string{targets[i%len(targets)]},
					PState: i % 2,
				}}
				raw, _ := json.Marshal(req)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(raw)))
				if w.Code != http.StatusOK {
					errs <- fmt.Sprintf("client %d req %d: status %d body %s", c, i, w.Code, w.Body.String())
					return
				}
			}
		}(c)
	}
	// Swap the model continuously while clients are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := s.Registry().Swap("primary", replacement); err != nil {
				errs <- err.Error()
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// Every swap published its own generation.
	if gen := s.Registry().List()[0].Generation; gen != 51 {
		t.Fatalf("generation = %d, want 51", gen)
	}
}

// TestServeGracefulDrain verifies Serve stops accepting on cancellation
// and completes in-flight work (the SIGTERM path of cmd/coloserve).
func TestServeGracefulDrain(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ln, err := netListen(t)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln, 5*time.Second) }()

	url := "http://" + ln.Addr().String()
	// Wait for the listener to answer.
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}

	// Fire a request concurrently with cancellation; Shutdown's drain
	// must let it complete.
	reqDone := make(chan error, 1)
	go func() {
		raw, _ := json.Marshal(PredictRequest{ScenarioRequest: ScenarioRequest{Target: "cg", PState: 0}})
		resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(raw))
		if err != nil {
			reqDone <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			reqDone <- fmt.Errorf("status %d", resp.StatusCode)
			return
		}
		reqDone <- nil
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	// The listener is closed: new connections fail.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting after shutdown")
	}
}

func netListen(t testing.TB) (net.Listener, error) {
	t.Helper()
	return net.Listen("tcp", "127.0.0.1:0")
}

// TestCanonicalScenario is the table-driven contract of the canonical
// form: co-runner order never matters (model features are sums),
// duplicates are preserved (two copies of cg load the machine more than
// one), and every other scenario dimension — target, P-state,
// multiplicity — separates forms.
func TestCanonicalScenario(t *testing.T) {
	cases := []struct {
		name string
		a, b features.Scenario
		same bool
	}{
		{
			name: "co-runner order is canonicalised",
			a:    features.Scenario{Target: "canneal", CoApps: []string{"cg", "ep"}, PState: 0},
			b:    features.Scenario{Target: "canneal", CoApps: []string{"ep", "cg"}, PState: 0},
			same: true,
		},
		{
			name: "order invariance holds for longer sets",
			a:    features.Scenario{Target: "cg", CoApps: []string{"ep", "cg", "ep"}, PState: 1},
			b:    features.Scenario{Target: "cg", CoApps: []string{"ep", "ep", "cg"}, PState: 1},
			same: true,
		},
		{
			name: "duplicate co-runners are not collapsed",
			a:    features.Scenario{Target: "cg", CoApps: []string{"ep", "ep"}, PState: 0},
			b:    features.Scenario{Target: "cg", CoApps: []string{"ep"}, PState: 0},
		},
		{
			name: "solo differs from any co-location",
			a:    features.Scenario{Target: "cg", PState: 0},
			b:    features.Scenario{Target: "cg", CoApps: []string{"cg"}, PState: 0},
		},
		{
			name: "target separates keys",
			a:    features.Scenario{Target: "cg", CoApps: []string{"ep"}, PState: 0},
			b:    features.Scenario{Target: "ep", CoApps: []string{"ep"}, PState: 0},
		},
		{
			name: "P-state separates keys",
			a:    features.Scenario{Target: "cg", CoApps: []string{"ep"}, PState: 0},
			b:    features.Scenario{Target: "cg", CoApps: []string{"ep"}, PState: 1},
		},
		{
			name: "target/co-app confusion is impossible",
			a:    features.Scenario{Target: "cg", CoApps: []string{"ep"}, PState: 0},
			b:    features.Scenario{Target: "ep", CoApps: []string{"cg"}, PState: 0},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ka, kb := CanonicalScenario(c.a), CanonicalScenario(c.b)
			if (ka == kb) != c.same {
				t.Fatalf("CanonicalScenario equality = %v, want %v\n  a: %q\n  b: %q", ka == kb, c.same, ka, kb)
			}
		})
	}
}

// TestCanonicalScenarioDoesNotMutateScenario: sorting happens on a copy,
// never on the caller's co-app slice.
func TestCanonicalScenarioDoesNotMutateScenario(t *testing.T) {
	co := []string{"ep", "cg", "canneal"}
	CanonicalScenario(features.Scenario{Target: "cg", CoApps: co})
	if co[0] != "ep" || co[1] != "cg" || co[2] != "canneal" {
		t.Fatalf("CanonicalScenario reordered the caller's co-apps: %v", co)
	}
}
