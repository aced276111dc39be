package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/feedback"
	"colocmodel/internal/harness"
	"colocmodel/internal/serve"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

func TestParseModelArg(t *testing.T) {
	name, path, err := parseModelArg("nn6=models/m6.json")
	if err != nil || name != "nn6" || path != "models/m6.json" {
		t.Fatalf("got %q %q %v", name, path, err)
	}
	name, path, err = parseModelArg("models/m6.json")
	if err != nil || name != "m6" || path != "models/m6.json" {
		t.Fatalf("got %q %q %v", name, path, err)
	}
	for _, bad := range []string{"=path", "name=", ""} {
		if _, _, err := parseModelArg(bad); err == nil {
			t.Fatalf("parseModelArg(%q) accepted", bad)
		}
	}
}

func TestParseRetention(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want feedback.Retention
		err  string // substring of the error after the part's name; "" = accepted
	}{
		{in: "", want: feedback.Retention{}},
		{in: "512MB", want: feedback.Retention{MaxBytes: 512e6}},
		{in: "1.5KiB", want: feedback.Retention{MaxBytes: 1536}},
		{in: "1GiB, 7d", want: feedback.Retention{MaxBytes: 1 << 30, MaxAge: 7 * 24 * time.Hour}},
		{in: "72h", want: feedback.Retention{MaxAge: 72 * time.Hour}},
		{in: "0.5d", want: feedback.Retention{MaxAge: 12 * time.Hour}},
		{in: "0B", want: feedback.Retention{}},
		{in: "NaNMB", err: "size is not a finite number"},
		{in: "InfMB", err: "size is not a finite number"},
		{in: "1e30GB", err: "size out of range"},
		{in: "0.5B", err: "size truncates to zero"},
		{in: "-5MB", err: "negative size"},
		{in: "abcMB", err: `bad size number "abc"`},
		{in: "NaNd", err: "age is not a finite number"},
		{in: "1e12d", err: "age out of range"},
		{in: "1e-20d", err: "age truncates to zero"},
		{in: "-3h", err: "negative age"},
		{in: "soon", err: "want a size (512MB) or age (72h)"},
	} {
		got, err := parseRetention(tc.in)
		if tc.err == "" {
			if err != nil || got != tc.want {
				t.Errorf("parseRetention(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
			}
			continue
		}
		if want := fmt.Sprintf("-obs-retention %q: %s", tc.in, tc.err); err == nil || err.Error() != want {
			t.Errorf("parseRetention(%q) error = %v; want %q", tc.in, err, want)
		}
	}
}

// saveTestModel trains a small linear model and writes its artefact.
func saveTestModel(t *testing.T, path string) *core.Model {
	t.Helper()
	cg, _ := workload.ByName("cg")
	ep, _ := workload.ByName("ep")
	ds, err := harness.Collect(harness.Plan{
		Spec:     simproc.XeonE5649(),
		Targets:  []workload.App{cg, ep},
		CoApps:   []workload.App{cg, ep},
		CoCounts: []int{1, 2},
		PStates:  []int{0},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	set, _ := features.SetByName("C")
	m, err := core.Train(core.Spec{Technique: core.Linear, FeatureSet: set}, ds, ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildRegistry(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m6.json")
	saveTestModel(t, path)

	reg, err := buildRegistry([]string{"primary=" + path, path})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 2 || reg.DefaultName() != "primary" {
		t.Fatalf("registry: len %d default %q", reg.Len(), reg.DefaultName())
	}

	if _, err := buildRegistry(nil); err == nil {
		t.Fatal("empty model list accepted")
	}
	if _, err := buildRegistry([]string{filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("missing artefact accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildRegistry([]string{bad}); err == nil {
		t.Fatal("corrupt artefact accepted")
	}
	if _, err := buildRegistry([]string{"a=" + path, "a=" + path}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

// TestEndToEnd exercises the acceptance path: save an artefact, serve
// it, predict over HTTP twice, compare both with the in-process model,
// and shut down gracefully.
func TestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m6.json")
	m := saveTestModel(t, path)

	reg, err := buildRegistry([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(reg, serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln, 5*time.Second) }()
	url := "http://" + ln.Addr().String()

	for i := 0; i < 50; i++ {
		if r, err := http.Get(url + "/healthz"); err == nil {
			r.Body.Close()
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	sc := features.Scenario{Target: "cg", CoApps: []string{"ep", "ep"}, PState: 0}
	want, err := m.PredictedSlowdown(sc)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"target": sc.Target, "co_apps": sc.CoApps, "pstate": sc.PState})
	var got struct {
		Slowdown float64 `json:"predicted_slowdown"`
		Cached   bool    `json:"cached"`
	}
	for i := 0; i < 2; i++ {
		resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got.Slowdown != want || got.Cached {
			t.Fatalf("request %d: slowdown %v (cached %v), model says %v", i, got.Slowdown, got.Cached, want)
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}
