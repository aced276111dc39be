package loadgen

// The soak tests promised by the serving tier: the loadgen harness
// drives serve.Server's real mux in process (HandlerDoer), so one
// seeded short soak exercises registry hot-swap, single and batch
// prediction and the adaptation ingest path end to end — under
// -race in CI — with zero network jitter and a reproducible op stream.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"colocmodel/internal/core"
	"colocmodel/internal/drift"
	"colocmodel/internal/features"
	"colocmodel/internal/feedback"
	"colocmodel/internal/harness"
	"colocmodel/internal/serve"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

var (
	soakOnce sync.Once
	soakDS   *harness.Dataset
	soakErr  error
)

// soakDataset is a small offline sweep shared by the soak tests.
func soakDataset(t testing.TB) *harness.Dataset {
	t.Helper()
	soakOnce.Do(func() {
		cg, _ := workload.ByName("cg")
		ep, _ := workload.ByName("ep")
		plan := harness.Plan{
			Spec:       simproc.XeonE5649(),
			Targets:    []workload.App{cg, ep},
			CoApps:     []workload.App{cg, ep},
			CoCounts:   []int{1, 2},
			PStates:    []int{0, 1},
			NoiseSigma: 0.01,
			Seed:       7,
		}
		soakDS, soakErr = harness.Collect(plan)
	})
	if soakErr != nil {
		t.Fatal(soakErr)
	}
	return soakDS
}

// newSoakServer trains a small linear model, saves it so the registry
// entry is disk-backed (reload ops re-read and hot-swap it, bumping the
// generation), and attaches the adaptation loop with an effectively
// untrippable drift monitor so observation traffic exercises the ingest
// path without ever firing the detector.
func newSoakServer(t testing.TB) *serve.Server {
	return newSoakServerWith(t, serve.Config{})
}

// newSoakServerWith is newSoakServer with an explicit serve config, for
// soaks that need observability knobs (slow thresholds, trace rings) on
// the backend tier.
func newSoakServerWith(t testing.TB, cfg serve.Config) *serve.Server {
	t.Helper()
	log, err := feedback.Open(feedback.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return newSoakServerLog(t, cfg, log)
}

// newSoakServerLog is newSoakServerWith with an explicit observation
// store, for soaks that need the disk-backed group-commit log (ingest
// soaks reopening the log mid-run).
func newSoakServerLog(t testing.TB, cfg serve.Config, log feedback.Store) *serve.Server {
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
	path := filepath.Join(t.TempDir(), "primary.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if err := reg.Add("primary", path, m); err != nil {
		t.Fatal(err)
	}
	s := serve.New(reg, cfg)
	mon := drift.NewMonitor(drift.Config{Lambda: 1e18, MinSamples: 1 << 30})
	if err := s.EnableAdaptation(serve.Adaptation{Log: log, Monitor: mon}); err != nil {
		t.Fatal(err)
	}
	return s
}

// soakSpace derives the scenario space from the served model exactly as
// cmd/coloload does: from the /v1/models listing.
func soakSpace(t testing.TB, s *serve.Server) *Space {
	t.Helper()
	infos := s.Registry().List()
	if len(infos) != 1 {
		t.Fatalf("registry lists %d models, want 1", len(infos))
	}
	space, err := SpaceFromModel(infos[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// TestSeededSoakInProcess is the CI soak: a request-bounded closed-loop
// run with a mixed predict / batch / observe / reload stream against
// the in-process mux. Reload ops hot-swap the model concurrently with
// predict traffic, so the generation-monotonicity check is live; any
// 4xx proves the generator emits invalid requests, any 5xx or transport
// error proves the serving tier breaks under concurrency.
func TestSeededSoakInProcess(t *testing.T) {
	s := newSoakServer(t)
	space := soakSpace(t, s)
	d := &HandlerDoer{Handler: s.Handler()}

	const requests = 2000
	rep, err := Run(Config{
		Mode:        ClosedLoop,
		Concurrency: 8,
		Duration:    time.Minute, // the request budget ends the run
		Requests:    requests,
		Seed:        42,
		Mix: Mix{
			ZipfSkew:      1.1,
			PredictWeight: 8,
			BatchWeight:   1,
			ObserveWeight: 2,
			ReloadWeight:  0.5,
			BatchSize:     8,
		},
		CheckGenerations: true,
	}, d, space)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != requests {
		t.Fatalf("measured %d requests, want %d", rep.Requests, requests)
	}
	if rep.Status4xx != 0 || rep.Status5xx != 0 || rep.TransportErrors != 0 {
		t.Fatalf("soak saw errors: 4xx=%d 5xx=%d transport=%d (rate %.4f)",
			rep.Status4xx, rep.Status5xx, rep.TransportErrors, rep.ErrorRate)
	}
	if rep.GenerationRegressions != 0 {
		t.Fatalf("%d generation regressions: hot swap served a stale model", rep.GenerationRegressions)
	}
	for _, kind := range []string{OpPredict, OpBatch, OpObserve, OpReload} {
		if rep.PerOp[kind] == 0 {
			t.Errorf("op kind %q absent from the soak (per_op: %v)", kind, rep.PerOp)
		}
	}
	// Reload traffic actually swapped: the registry generation moved.
	if infos := s.Registry().List(); infos[0].Generation < 2 {
		t.Fatalf("generation still %d after %d reload ops", infos[0].Generation, rep.PerOp[OpReload])
	}
	// The ingest path actually logged: observation count matches the ops
	// (each observe op carries exactly one observation).
	if got := s.Adaptation().Log.Len(); uint64(got) != rep.PerOp[OpObserve] {
		t.Fatalf("feedback log holds %d observations, want %d", got, rep.PerOp[OpObserve])
	}
	// An SLO gate a healthy in-process run must clear.
	if v := rep.Gate(SLO{MaxErrorRate: 0, MinThroughput: 1}); len(v) != 0 {
		t.Fatalf("SLO violations: %v", v)
	}
}

// TestSeededSoakDeterministic re-runs a single-worker request-bounded
// soak twice with one seed: the op mix — and therefore the per-op
// counts and the feedback-log depth — must be identical across runs.
func TestSeededSoakDeterministic(t *testing.T) {
	run := func() (*Report, int) {
		s := newSoakServer(t)
		space := soakSpace(t, s)
		rep, err := Run(Config{
			Mode:        ClosedLoop,
			Concurrency: 1,
			Duration:    time.Minute,
			Requests:    400,
			Seed:        9,
			Mix: Mix{
				PredictWeight: 4,
				BatchWeight:   1,
				ObserveWeight: 1,
				ReloadWeight:  0.25,
				BatchSize:     4,
			},
			CheckGenerations: true,
		}, &HandlerDoer{Handler: s.Handler()}, space)
		if err != nil {
			t.Fatal(err)
		}
		return rep, s.Adaptation().Log.Len()
	}
	repA, logA := run()
	repB, logB := run()
	if repA.Requests != repB.Requests {
		t.Fatalf("request counts differ: %d vs %d", repA.Requests, repB.Requests)
	}
	for kind, n := range repA.PerOp {
		if repB.PerOp[kind] != n {
			t.Fatalf("per-op %q differs across identically seeded runs: %d vs %d",
				kind, n, repB.PerOp[kind])
		}
	}
	if logA != logB {
		t.Fatalf("feedback log depth differs: %d vs %d", logA, logB)
	}
	if repA.Errors != 0 || repB.Errors != 0 {
		t.Fatalf("deterministic soak saw errors: %d, %d", repA.Errors, repB.Errors)
	}
}

// TestSoakRaceReloadObservations pits a predict-only loadgen soak
// against dedicated reload and observation writers — the exact
// concurrency pattern of a deployed scheduler (hot predictions) whose
// model artefacts are republished while measurement agents stream
// runtimes in. Run under -race in CI. Invariants: zero 5xx anywhere,
// and no worker ever observes the registry generation move backwards.
func TestSoakRaceReloadObservations(t *testing.T) {
	s := newSoakServer(t)
	space := soakSpace(t, s)
	h := s.Handler()

	post := func(path, body string) (int, string) {
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("")
		} else {
			rd = strings.NewReader(body)
		}
		req := httptest.NewRequest(http.MethodPost, path, rd)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}

	done := make(chan struct{})
	errs := make(chan error, 2)
	var writers sync.WaitGroup

	// Reload writer: republishes the artefact as fast as it can.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for {
			select {
			case <-done:
				errs <- nil
				return
			default:
			}
			if code, body := post("/v1/models/reload", ""); code != http.StatusOK {
				errs <- fmt.Errorf("reload returned %d: %s", code, body)
				return
			}
		}
	}()

	// Observation writer: streams measured runtimes for scenarios the
	// model covers, forcing server-side prediction (and cache traffic)
	// on every ingest.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				errs <- nil
				return
			default:
			}
			sc := space.Scenario(i % space.Size())
			co := ""
			if len(sc.CoApps) > 0 {
				co = `"co_apps":["` + strings.Join(sc.CoApps, `","`) + `"],`
			}
			body := fmt.Sprintf(`{"target":%q,%s"pstate":%d,"measured_seconds":42.5}`, sc.Target, co, sc.PState)
			if code, resp := post("/v1/observations", body); code != http.StatusOK {
				errs <- fmt.Errorf("observation returned %d: %s", code, resp)
				return
			}
		}
	}()

	rep, err := Run(Config{
		Mode:             ClosedLoop,
		Concurrency:      8,
		Duration:         time.Minute,
		Requests:         1500,
		Seed:             1234,
		Mix:              Mix{ZipfSkew: 1.1, PredictWeight: 1},
		CheckGenerations: true,
	}, &HandlerDoer{Handler: h}, space)
	close(done)
	writers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if werr := <-errs; werr != nil {
			t.Fatal(werr)
		}
	}
	if rep.Status5xx != 0 || rep.TransportErrors != 0 {
		t.Fatalf("predict traffic failed under concurrent reload: 5xx=%d transport=%d", rep.Status5xx, rep.TransportErrors)
	}
	if rep.Status4xx != 0 {
		t.Fatalf("predict traffic rejected: 4xx=%d", rep.Status4xx)
	}
	if rep.GenerationRegressions != 0 {
		t.Fatalf("%d generation regressions under concurrent reload", rep.GenerationRegressions)
	}
	if infos := s.Registry().List(); infos[0].Generation < 2 {
		t.Fatal("reload writer never swapped the model; race coverage lost")
	}
}
