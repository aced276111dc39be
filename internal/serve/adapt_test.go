package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"colocmodel/internal/core"
	"colocmodel/internal/drift"
	"colocmodel/internal/features"
	"colocmodel/internal/feedback"
	"colocmodel/internal/harness"
	"colocmodel/internal/retrain"
)

// splitByCoCount partitions the offline sweep: the incumbent trains
// only on solo co-location, so the heavier records play the part of a
// workload shift at deployment time.
func splitByCoCount(ds *harness.Dataset) (solo, heavy []harness.Record) {
	for _, r := range ds.Records {
		if r.NumCoLoc <= 1 {
			solo = append(solo, r)
		} else {
			heavy = append(heavy, r)
		}
	}
	return
}

// newAdaptiveServer builds a server whose "primary" model saw only
// solo co-location, with the full adaptation loop attached.
func newAdaptiveServer(t testing.TB, driftCfg drift.Config, retrainCfg retrain.Config) (*Server, []harness.Record, []harness.Record) {
	t.Helper()
	return newAdaptiveServerStore(t, driftCfg, retrainCfg, nil)
}

// newAdaptiveServerStore is newAdaptiveServer with the controller
// reading the observation log through wrap(log); nil wrap reads the log.
func newAdaptiveServerStore(t testing.TB, driftCfg drift.Config, retrainCfg retrain.Config,
	wrap func(feedback.Store) feedback.Store) (*Server, []harness.Record, []harness.Record) {
	t.Helper()
	ds := testDataset(t)
	solo, heavy := splitByCoCount(ds)
	set, err := features.SetByName("F")
	if err != nil {
		t.Fatal(err)
	}
	incumbent, err := core.Train(core.Spec{Technique: core.Linear, FeatureSet: set, Seed: 1}, ds, solo)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add("primary", "", incumbent); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})

	log, err := feedback.Open(feedback.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if retrainCfg.Model == "" {
		retrainCfg.Model = "primary"
	}
	soloDS := *ds
	soloDS.Records = solo
	var store feedback.Store = log
	if wrap != nil {
		store = wrap(log)
	}
	ctrl, err := retrain.New(retrainCfg, reg, &soloDS, store)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableAdaptation(Adaptation{
		Log: log, Monitor: drift.NewMonitor(driftCfg), Controller: ctrl, AutoRetrain: true,
	}); err != nil {
		t.Fatal(err)
	}
	return s, solo, heavy
}

// obsReq converts a harness record into the wire form of an
// observation (the server computes the prediction itself).
func obsReq(r harness.Record) ObservationRequest {
	sc := features.ScenarioFromRecord(r)
	return ObservationRequest{
		Target: sc.Target, CoApps: sc.CoApps, PState: sc.PState,
		MeasuredSeconds: r.Seconds,
	}
}

// replay repeats a record stream n times: a scheduling loop observes
// the same scenarios over and over, and the drift detector needs a
// sustained stream, not a single pass over a small sweep.
func replay(records []harness.Record, n int) []harness.Record {
	out := make([]harness.Record, 0, n*len(records))
	for i := 0; i < n; i++ {
		out = append(out, records...)
	}
	return out
}

// TestClosedLoopAdaptation is the subsystem's end-to-end property: the
// workload mix shifts mid-stream, the drift detector fires, a
// candidate is retrained on the logged observations, beats the
// incumbent on the holdout and is promoted — the generation advances
// and the new model serves. Fully deterministic: simulator records,
// seeded split, linear training.
func TestClosedLoopAdaptation(t *testing.T) {
	s, solo, heavy := newAdaptiveServer(t,
		drift.Config{Lambda: 30, MinSamples: 10},
		retrain.Config{Seed: 42, MinObservations: 10, MarginPct: 0.01})
	h := s.Handler()

	// Phase 1: deployment matches training — solo-co-location
	// observations, residuals small, no drift.
	for _, r := range replay(solo, 5) {
		w := postJSON(t, h, "/v1/observations", obsReq(r))
		if w.Code != http.StatusOK {
			t.Fatalf("observation rejected: %d %s", w.Code, w.Body.String())
		}
		if decodeBody[ObservationsResponse](t, w).DriftTripped {
			t.Fatal("drift tripped on in-distribution observations")
		}
	}

	// Phase 2: the mix shifts to heavy co-location. The incumbent has
	// never seen it; the detector must trip within the stream.
	tripped := false
	for _, r := range replay(heavy, 10) {
		w := postJSON(t, h, "/v1/observations", obsReq(r))
		if w.Code != http.StatusOK {
			t.Fatalf("observation rejected: %d %s", w.Code, w.Body.String())
		}
		if decodeBody[ObservationsResponse](t, w).DriftTripped {
			tripped = true
		}
	}
	if !tripped {
		t.Fatal("workload shift never tripped the drift detector")
	}
	dr := decodeBody[drift.Report](t, get(t, h, "/v1/drift"))
	if !dr.Tripped || len(dr.Streams) == 0 {
		t.Fatalf("drift report does not show the trip: %+v", dr)
	}

	// Phase 3: synchronous retrain. The candidate sees the logged
	// heavy observations and must beat the solo-only incumbent.
	w := postJSON(t, h, "/v1/retrain", RetrainRequest{Wait: true, Reason: "test"})
	if w.Code != http.StatusOK {
		t.Fatalf("retrain failed: %d %s", w.Code, w.Body.String())
	}
	res := decodeBody[retrain.Result](t, w)
	if !res.Promoted {
		t.Fatalf("candidate not promoted: %+v", res)
	}
	if res.CandidateMPE >= res.IncumbentMPE {
		t.Fatalf("promotion with candidate MPE %v >= incumbent %v", res.CandidateMPE, res.IncumbentMPE)
	}

	// Phase 4: the promotion is visible end to end — generation 2
	// serves predictions, the drift streams were reset, status records
	// the attempt.
	pw := postJSON(t, h, "/v1/predict", PredictRequest{
		ScenarioRequest: ScenarioRequest{Target: "canneal", CoApps: []string{"cg", "cg", "cg"}, PState: 0},
	})
	if pr := decodeBody[PredictResponse](t, pw); pr.Generation != 2 {
		t.Fatalf("serving generation %d after promotion, want 2", pr.Generation)
	}
	dr = decodeBody[drift.Report](t, get(t, h, "/v1/drift"))
	if dr.Tripped || len(dr.Streams) != 0 {
		t.Fatalf("drift streams not reset after promotion: %+v", dr)
	}
	st := decodeBody[retrain.Status](t, get(t, h, "/v1/retrain/status"))
	if st.Promoted != 1 || st.Attempts < 1 {
		t.Fatalf("status wrong after promotion: %+v", st)
	}
}

// TestFailingCandidateKeepsIncumbent: with an impossible margin the
// attempt is recorded as rejected and generation 1 keeps serving.
func TestFailingCandidateKeepsIncumbent(t *testing.T) {
	s, _, heavy := newAdaptiveServer(t,
		drift.Config{MinSamples: 10},
		retrain.Config{Seed: 42, MinObservations: 10, MarginPct: 1e9})
	h := s.Handler()
	for _, r := range heavy {
		postJSON(t, h, "/v1/observations", obsReq(r))
	}
	w := postJSON(t, h, "/v1/retrain", RetrainRequest{Wait: true})
	if w.Code != http.StatusOK {
		t.Fatalf("retrain call failed: %d %s", w.Code, w.Body.String())
	}
	res := decodeBody[retrain.Result](t, w)
	if res.Promoted || res.Rejection == "" {
		t.Fatalf("expected rejection, got %+v", res)
	}
	pw := postJSON(t, h, "/v1/predict", PredictRequest{
		ScenarioRequest: ScenarioRequest{Target: "cg", PState: 0},
	})
	if pr := decodeBody[PredictResponse](t, pw); pr.Generation != 1 {
		t.Fatalf("generation %d after rejected attempt, want 1", pr.Generation)
	}
	st := decodeBody[retrain.Status](t, get(t, h, "/v1/retrain/status"))
	if st.Rejected != 1 || st.Promoted != 0 {
		t.Fatalf("status wrong: %+v", st)
	}
}

// TestAutoRetrainInBackground: with the controller's loop running, a
// drift trip alone — no manual retrain call — promotes a new model. The
// trip comes partway through the replay; the attempt's read of the log
// is held until the whole replay is posted, so its candidate trains on
// every shifted observation however the goroutines are scheduled.
func TestAutoRetrainInBackground(t *testing.T) {
	gate := &blockingStore{release: make(chan struct{})}
	s, solo, heavy := newAdaptiveServerStore(t,
		drift.Config{Lambda: 30, MinSamples: 10},
		retrain.Config{Seed: 42, MinObservations: 10, MarginPct: 0.01},
		func(log feedback.Store) feedback.Store { gate.Store = log; return gate })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Adaptation().Controller.Start(ctx)
	h := s.Handler()

	// Healthy prefix, then the shift: Page–Hinkley detects the
	// change-point relative to each stream's own history.
	for _, r := range replay(solo, 5) {
		postJSON(t, h, "/v1/observations", obsReq(r))
	}
	triggered := false
	for _, r := range replay(heavy, 10) {
		w := postJSON(t, h, "/v1/observations", obsReq(r))
		if decodeBody[ObservationsResponse](t, w).RetrainTriggered {
			triggered = true
		}
	}
	close(gate.release)
	if !triggered {
		t.Fatal("drift trip did not trigger auto-retrain")
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := decodeBody[retrain.Status](t, get(t, h, "/v1/retrain/status")); st.Promoted >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("background retrain never promoted; status %+v",
		decodeBody[retrain.Status](t, get(t, h, "/v1/retrain/status")))
}

func TestObservationsBatchPartialFailure(t *testing.T) {
	s, solo, _ := newAdaptiveServer(t, drift.Config{}, retrain.Config{})
	h := s.Handler()
	req := ObservationsRequest{Observations: []ObservationRequest{
		obsReq(solo[0]),
		{Target: "no-such-app", MeasuredSeconds: 5},
		{Target: "cg", MeasuredSeconds: -1},
		obsReq(solo[1]),
	}}
	w := postJSON(t, h, "/v1/observations", req)
	if w.Code != http.StatusOK {
		t.Fatalf("batch failed outright: %d %s", w.Code, w.Body.String())
	}
	resp := decodeBody[ObservationsResponse](t, w)
	if resp.Accepted != 2 || resp.Rejected != 2 {
		t.Fatalf("accepted/rejected = %d/%d, want 2/2", resp.Accepted, resp.Rejected)
	}
	if resp.Results[1].Error == nil || resp.Results[1].Error.Code != CodeUnknownApp {
		t.Fatalf("slot 1 error wrong: %+v", resp.Results[1])
	}
	if resp.Results[2].Error == nil || resp.Results[2].Error.Code != CodeBadRequest {
		t.Fatalf("slot 2 error wrong: %+v", resp.Results[2])
	}
	if resp.Results[0].Error != nil || resp.Results[3].Error != nil {
		t.Fatal("good slots reported errors")
	}
	if s.Adaptation().Log.Len() != 2 {
		t.Fatalf("log holds %d observations, want 2", s.Adaptation().Log.Len())
	}
	// Mixing the single fields with a batch is a client error.
	mixed := postJSON(t, h, "/v1/observations", ObservationsRequest{
		ObservationRequest: obsReq(solo[0]),
		Observations:       []ObservationRequest{obsReq(solo[1])},
	})
	if mixed.Code != http.StatusBadRequest {
		t.Fatalf("mixed single+batch accepted: %d", mixed.Code)
	}
}

// TestNegativePredictionFailsOnlyItsSlot: a negative predicted_seconds is
// the client's mistake in its own slot — bad_request there, the rest of
// the batch logged — not an internal failure of the whole batch (the log's
// validation used to refuse the batch the handler had let it through).
func TestNegativePredictionFailsOnlyItsSlot(t *testing.T) {
	s, solo, _ := newAdaptiveServer(t, drift.Config{}, retrain.Config{})
	h := s.Handler()
	bad := obsReq(solo[1])
	bad.PredictedSeconds = -1
	for _, tc := range []struct {
		name     string
		body     any
		status   int
		accepted int
	}{
		{"batch", ObservationsRequest{Observations: []ObservationRequest{obsReq(solo[0]), bad, obsReq(solo[2])}}, http.StatusOK, 2},
		{"single", bad, http.StatusBadRequest, 0},
	} {
		before := s.Adaptation().Log.Len()
		w := postJSON(t, h, "/v1/observations", tc.body)
		if w.Code != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, w.Code, tc.status, w.Body.String())
		}
		if got := s.Adaptation().Log.Len() - before; got != tc.accepted {
			t.Fatalf("%s: %d observations logged, want %d", tc.name, got, tc.accepted)
		}
		if tc.status != http.StatusOK {
			if code := errCode(t, w); code != CodeBadRequest {
				t.Fatalf("%s: code %q, want %q", tc.name, code, CodeBadRequest)
			}
			continue
		}
		resp := decodeBody[ObservationsResponse](t, w)
		if resp.Accepted != 2 || resp.Rejected != 1 {
			t.Fatalf("%s: accepted/rejected = %d/%d, want 2/1", tc.name, resp.Accepted, resp.Rejected)
		}
		for i, it := range resp.Results {
			if bad := i == 1; (it.Error != nil) != bad || (bad && it.Error.Code != CodeBadRequest) {
				t.Fatalf("%s: slot %d: %+v", tc.name, i, it)
			}
		}
		all, err := s.Adaptation().Log.All()
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []harness.Record{solo[0], solo[2]} {
			if got := all[before+i]; got.Target != obsReq(want).Target || got.MeasuredSeconds != want.Seconds {
				t.Fatalf("%s: logged %+v, want the observation of %+v", tc.name, got, want)
			}
		}
	}
}

func TestSingleBadObservationIsPlain400(t *testing.T) {
	s, _, _ := newAdaptiveServer(t, drift.Config{}, retrain.Config{})
	w := postJSON(t, s.Handler(), "/v1/observations", ObservationRequest{Target: "ghost", MeasuredSeconds: 1})
	if w.Code != http.StatusBadRequest || errCode(t, w) != CodeUnknownApp {
		t.Fatalf("got %d %s", w.Code, w.Body.String())
	}
}

// TestAdaptationEndpointsDisabled: a server without the loop answers
// the adaptation endpoints with a typed 503, and /v1/version reports
// adaptation off.
func TestAdaptationEndpointsDisabled(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	for _, probe := range []func() int{
		func() int {
			return postJSON(t, h, "/v1/observations", ObservationRequest{Target: "cg", MeasuredSeconds: 1}).Code
		},
		func() int { return get(t, h, "/v1/drift").Code },
		func() int { return postJSON(t, h, "/v1/retrain", RetrainRequest{}).Code },
		func() int { return get(t, h, "/v1/retrain/status").Code },
	} {
		if code := probe(); code != http.StatusServiceUnavailable {
			t.Fatalf("adaptation endpoint returned %d without the loop, want 503", code)
		}
	}
	v := decodeBody[VersionResponse](t, get(t, h, "/v1/version"))
	if v.Adaptation {
		t.Fatal("version reports adaptation on a plain server")
	}
	if v.Service != "coloserve" || v.APIVersion != "v1" || v.ModelFormat != core.ModelFormat() {
		t.Fatalf("version body wrong: %+v", v)
	}
	if v.GoVersion == "" {
		t.Fatal("version missing go_version")
	}
}

// TestAdaptationMetricsExposed: the scrape carries the adaptation
// counters and gauges at the values the log, the drift monitor and the
// retraining controller hold.
func TestAdaptationMetricsExposed(t *testing.T) {
	s, solo, heavy := newAdaptiveServer(t,
		drift.Config{Lambda: 30, MinSamples: 10},
		retrain.Config{Seed: 42, MinObservations: 10, MarginPct: 0.01})
	h := s.Handler()
	stream := append(replay(solo, 3), replay(heavy, 10)...)
	for _, r := range stream {
		postJSON(t, h, "/v1/observations", obsReq(r))
	}
	postJSON(t, h, "/v1/observations", ObservationRequest{Target: "ghost", MeasuredSeconds: 1})
	postJSON(t, h, "/v1/retrain", RetrainRequest{Wait: true})

	body := get(t, h, "/metrics").Body.String()
	last := s.adapt.Controller.Status().Last
	if last == nil {
		t.Fatal("no retraining attempt recorded")
	}
	tripped := 0.0
	if s.adapt.Monitor.Tripped() {
		tripped = 1
	}
	for name, want := range map[string]float64{
		"coloserve_observations_ingested_total": float64(len(stream)),
		"coloserve_observations_rejected_total": 1,
		"coloserve_observations_logged":         float64(len(stream)),
		"coloserve_retrains_attempted_total":    1,
		"coloserve_retrains_promoted_total":     1,
		"coloserve_retrains_rejected_total":     0,
		"coloserve_retrain_candidate_mpe":       last.CandidateMPE,
		"coloserve_retrain_incumbent_mpe":       last.IncumbentMPE,
		"coloserve_drift_score":                 s.adapt.Monitor.MaxScore(),
		"coloserve_drift_tripped":               tripped,
	} {
		if got := metricValue(t, body, name); got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
	if got := metricValue(t, body, "coloserve_drift_trips_total"); got < 1 {
		t.Fatalf("coloserve_drift_trips_total = %v, want >= 1", got)
	}
}

// metricValue extracts an unlabelled sample's value from a scrape.
func metricValue(t testing.TB, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		var v float64
		if n, _ := fmt.Sscanf(line, name+" %g", &v); n == 1 && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found in scrape:\n%s", name, body)
	return 0
}

// TestObservationsPersistAcrossRestart: with a disk-backed log, a new
// server process sees the previous process's observations.
func TestObservationsPersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	build := func() *Server {
		s, _ := newTestServer(t, Config{})
		log, err := feedback.Open(feedback.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { log.Close() })
		if err := s.EnableAdaptation(Adaptation{Log: log, Monitor: drift.NewMonitor(drift.Config{})}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := build()
	solo, _ := splitByCoCount(testDataset(t))
	for _, r := range solo[:5] {
		if w := postJSON(t, s1.Handler(), "/v1/observations", obsReq(r)); w.Code != http.StatusOK {
			t.Fatalf("observation rejected: %s", w.Body.String())
		}
	}
	if err := s1.Adaptation().Log.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := build()
	if n := s2.Adaptation().Log.Len(); n != 5 {
		t.Fatalf("restarted log holds %d observations, want 5", n)
	}
}

// blockingStore is a feedback.Store whose All parks its caller until
// release is closed, so a test can hold a retraining attempt in flight.
// All first signals on entered, when it is not nil.
type blockingStore struct {
	feedback.Store
	entered chan struct{}
	release chan struct{}
}

func (b *blockingStore) All() ([]feedback.Observation, error) {
	if b.entered != nil {
		b.entered <- struct{}{}
	}
	<-b.release
	return b.Store.All()
}

// TestRetrainInProgressIsConflict: while one attempt runs, POST
// /v1/retrain is a typed 409 with and without "wait", and the held
// attempt still answers with its own verdict.
func TestRetrainInProgressIsConflict(t *testing.T) {
	ds := testDataset(t)
	set, err := features.SetByName("F")
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(core.Spec{Technique: core.Linear, FeatureSet: set, Seed: 1}, ds, ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add("primary", "", m); err != nil {
		t.Fatal(err)
	}
	log, err := feedback.Open(feedback.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	store := &blockingStore{Store: log, entered: make(chan struct{}), release: make(chan struct{})}
	ctrl, err := retrain.New(retrain.Config{Model: "primary", Seed: 42, MinObservations: 10}, reg, ds, store)
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	if err := s.EnableAdaptation(Adaptation{Log: log, Monitor: drift.NewMonitor(drift.Config{}), Controller: ctrl}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, r := range ds.Records {
		postJSON(t, h, "/v1/observations", obsReq(r))
	}

	held := make(chan *httptest.ResponseRecorder)
	go func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/retrain", strings.NewReader(`{"wait":true,"reason":"held"}`)))
		held <- w
	}()
	select {
	case <-store.entered:
	case w := <-held:
		t.Fatalf("attempt ended before reading the observations: %d %s", w.Code, w.Body.String())
	}
	for _, req := range []RetrainRequest{{Wait: true}, {}} {
		w := postJSON(t, h, "/v1/retrain", req)
		if w.Code != http.StatusConflict || errCode(t, w) != CodeRetrainInProgress {
			t.Errorf("retrain %+v during an attempt: %d %s, want 409 %s", req, w.Code, w.Body.String(), CodeRetrainInProgress)
		}
	}
	close(store.release)
	w := <-held
	if w.Code != http.StatusOK {
		t.Fatalf("held attempt: %d %s", w.Code, w.Body.String())
	}
	res := decodeBody[retrain.Result](t, w)
	if res.Attempt != 1 || res.Reason != "held" || (!res.Promoted && res.Rejection == "") {
		t.Fatalf("held attempt's verdict: %+v", res)
	}
	if st := decodeBody[retrain.Status](t, get(t, h, "/v1/retrain/status")); st.Attempts != 1 || st.State != "idle" {
		t.Fatalf("status after the held attempt: %+v", st)
	}
}

// discardStore is a feedback.Store that keeps nothing, so an allocation
// count of /v1/observations is the handler's own.
type discardStore struct{ feedback.Store }

func (discardStore) AppendBatch(obs []feedback.Observation) (feedback.Commit, error) {
	return feedback.Commit{Batch: len(obs)}, nil
}

// observationsAllocBudget is the allocation count of one 64-observation
// /v1/observations through the whole handler stack, the store aside: a
// fixed number per request, none per observation. It arms no request
// deadline: the handler never reads its context, so a timer would add
// five allocations that bound nothing.
const observationsAllocBudget = 15

func TestObservationsAllocs(t *testing.T) {
	s, m := newTestServer(t, Config{})
	if err := s.EnableAdaptation(Adaptation{Log: discardStore{}, Monitor: drift.NewMonitor(drift.Config{})}); err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for scs := distinctScenarios(m, 0, 5); len(scs) >= 64; scs = scs[64:] {
		var req ObservationsRequest
		for i, sc := range scs[:64] {
			req.Observations = append(req.Observations, ObservationRequest{
				Target: sc.Target, CoApps: sc.CoApps, PState: sc.PState, MeasuredSeconds: float64(100 + i),
			})
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	allocs, w := handlerAllocs(t, s.Handler(), "/v1/observations", len(bodies)-2, bodies...)
	if w.status != http.StatusOK || !bytes.Contains(w.body, []byte(`"accepted":64`)) {
		t.Fatalf("not 64 accepted observations: %d %s", w.status, w.body)
	}
	if allocs > observationsAllocBudget {
		t.Fatalf("64-observation /v1/observations allocates %v per request, budget %d", allocs, observationsAllocBudget)
	}
}
