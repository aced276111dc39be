package loadgen

// The observability acceptance soak: a seeded in-process run against a
// retain-everything server must leave traces in /v1/traces whose span
// trees cover the full predict pipeline, stamp every response with an
// X-Request-ID that matches a structured log line, and surface the
// server-side stage breakdown in the loadgen report.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/obs"
	"colocmodel/internal/serve"
)

// syncBuffer serializes concurrent writes from handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newObsSoakServer is newSoakServer with full trace retention and a
// JSON request log captured in memory.
func newObsSoakServer(t testing.TB) (*serve.Server, *syncBuffer) {
	t.Helper()
	ds := soakDataset(t)
	set, err := features.SetByName("F")
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(core.Spec{Technique: core.Linear, FeatureSet: set, Seed: 1}, ds, ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if err := reg.Add("primary", "", m); err != nil {
		t.Fatal(err)
	}
	logBuf := &syncBuffer{}
	logger, err := obs.NewLogger(logBuf, "json", 0)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(reg, serve.Config{
		SlowThreshold: -1, // retain and slow-log everything
		TraceRing:     128,
		Logger:        logger,
	})
	return s, logBuf
}

func TestObservabilitySoak(t *testing.T) {
	s, logBuf := newObsSoakServer(t)
	space := soakSpace(t, s)
	h := s.Handler()

	const requests = 300
	rep, err := Run(Config{
		Mode:        ClosedLoop,
		Concurrency: 4,
		Duration:    time.Minute,
		Requests:    requests,
		Seed:        11,
		Mix:         Mix{ZipfSkew: 1.1, PredictWeight: 8, BatchWeight: 1, BatchSize: 4},
	}, &HandlerDoer{Handler: h}, space)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("soak saw %d errors", rep.Errors)
	}

	// The report carries the server-side stage breakdown parsed from
	// Server-Timing headers: decode and eval on every predict.
	for _, stage := range []string{"decode", "eval"} {
		ss, ok := rep.ServerStages[stage]
		if !ok || ss.Count == 0 {
			t.Fatalf("stage %s missing from report: %v", stage, rep.ServerStages)
		}
		if ss.MeanSeconds < 0 || ss.TotalSeconds < float64(ss.Count)*ss.MeanSeconds*0.999 {
			t.Fatalf("stage %s stats inconsistent: %+v", stage, ss)
		}
	}
	if rep.ServerStages["decode"].Count != rep.Requests {
		t.Fatalf("decode reported by %d of %d requests", rep.ServerStages["decode"].Count, rep.Requests)
	}

	// The trace ring retained traces; at least one predict covers the
	// full decode → eval → encode pipeline with monotone,
	// parent-contained timings.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/traces?endpoint=predict", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("traces: %d", w.Code)
	}
	var tr obs.TracesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Count == 0 {
		t.Fatal("soak retained no predict traces")
	}
	full := 0
	for _, td := range tr.Traces {
		seen := map[string]bool{}
		for i, sp := range td.Spans {
			seen[sp.Name] = true
			if sp.EndNS < sp.StartNS {
				t.Fatalf("trace %s span %s not monotone: %+v", td.ID, sp.Name, sp)
			}
			if sp.Parent >= 0 {
				p := td.Spans[sp.Parent]
				if sp.StartNS < p.StartNS || (p.EndNS > 0 && sp.EndNS > p.EndNS) {
					t.Fatalf("trace %s span %d (%s) escapes parent %s", td.ID, i, sp.Name, p.Name)
				}
			}
		}
		if seen["decode"] && seen["eval"] && seen["encode"] {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no retained trace covers decode→eval→encode")
	}

	// Every structured log line carries a request ID, and the log saw
	// every soak request.
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	logged := make(map[string]bool, len(lines))
	for _, line := range lines {
		var rec struct {
			RequestID string `json:"request_id"`
			Level     string `json:"level"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %q", line)
		}
		if rec.RequestID == "" {
			t.Fatalf("log line missing request_id: %q", line)
		}
		if rec.Level != "WARN" { // slow threshold -1: everything is slow
			t.Fatalf("expected WARN slow-request lines, got %q", line)
		}
		logged[rec.RequestID] = true
	}
	if uint64(len(lines)) < rep.Requests {
		t.Fatalf("%d log lines for %d requests", len(lines), rep.Requests)
	}

	// Responses echo X-Request-ID and each echoed ID has its log line.
	for i := 0; i < 5; i++ {
		sc := space.Scenario(i % space.Size())
		body, err := json.Marshal(serve.PredictRequest{ScenarioRequest: serve.ScenarioRequest{
			Target: sc.Target, CoApps: sc.CoApps, PState: sc.PState,
		}})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("predict %d: %d %s", i, rec.Code, rec.Body.String())
		}
		id := rec.Header().Get("X-Request-ID")
		if id == "" {
			t.Fatal("response missing X-Request-ID")
		}
		if !strings.Contains(logBuf.String(), `"request_id":"`+id+`"`) {
			t.Fatalf("request %s has no structured log line", id)
		}
	}

	// The tracer counted every request it saw.
	if st := s.Tracer().Stats(); st.Seen < uint64(requests) {
		t.Fatalf("tracer saw %d, want >= %d", st.Seen, requests)
	}
}

// TestSoakStagesDisabledTracing: driving a server without tracing
// yields a report with no stage breakdown — the header is advisory.
func TestSoakStagesDisabledTracing(t *testing.T) {
	ds := soakDataset(t)
	set, err := features.SetByName("F")
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(core.Spec{Technique: core.Linear, FeatureSet: set, Seed: 1}, ds, ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if err := reg.Add("primary", "", m); err != nil {
		t.Fatal(err)
	}
	s := serve.New(reg, serve.Config{TraceRing: -1})
	space := soakSpace(t, s)
	rep, err := Run(Config{
		Mode:        ClosedLoop,
		Concurrency: 2,
		Duration:    time.Minute,
		Requests:    50,
		Seed:        3,
		Mix:         Mix{PredictWeight: 1},
	}, &HandlerDoer{Handler: s.Handler()}, space)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors: %d", rep.Errors)
	}
	if len(rep.ServerStages) != 0 {
		t.Fatalf("stage breakdown present with tracing disabled: %v", rep.ServerStages)
	}
}
