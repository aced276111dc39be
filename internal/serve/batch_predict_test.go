package serve

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/mlp"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

// neuralTestServer builds a server around a neural model, the technique
// whose batch path actually exercises the batched GEMM kernels.
func neuralTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	ds := testDataset(t)
	set, err := features.SetByName("F")
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(core.Spec{
		Technique: core.NeuralNet, FeatureSet: set, Seed: 11,
		SCG: mlp.SCGConfig{MaxIter: 60},
	}, ds, ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add("nn", "", m); err != nil {
		t.Fatal(err)
	}
	return New(reg, cfg)
}

var batchScenarios = []map[string]any{
	{"target": "canneal", "co_apps": []string{"cg"}, "pstate": 0},
	{"target": "cg", "co_apps": []string{"ep", "ep", "ep"}, "pstate": 1},
	{"target": "ep", "co_apps": []string{"cg"}, "pstate": 0},
	{"target": "canneal", "co_apps": []string{"ep", "ep", "ep"}, "pstate": 1},
	{"target": "cg", "co_apps": []string{"cg"}, "pstate": 0},
}

// The batched batch endpoint must return bit-identical predictions to the
// single-predict endpoint.
func TestBatchMatchesSinglePredict(t *testing.T) {
	s := neuralTestServer(t, Config{})
	h := s.Handler()

	var singles []PredictResponse
	for _, sc := range batchScenarios {
		w := postJSON(t, h, "/v1/predict", sc)
		if w.Code != http.StatusOK {
			t.Fatalf("predict: %d: %s", w.Code, w.Body.String())
		}
		singles = append(singles, decodeBody[PredictResponse](t, w))
	}

	w := postJSON(t, h, "/v1/predict/batch", map[string]any{"scenarios": batchScenarios})
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d: %s", w.Code, w.Body.String())
	}
	batch := decodeBody[BatchResponse](t, w)
	if batch.Errors != 0 || len(batch.Results) != len(batchScenarios) {
		t.Fatalf("batch errors=%d results=%d", batch.Errors, len(batch.Results))
	}
	for i, it := range batch.Results {
		if it.Result == nil {
			t.Fatalf("slot %d: no result: %+v", i, it.Error)
		}
		if it.Result.PredictedSeconds != singles[i].PredictedSeconds {
			t.Fatalf("slot %d: batch %v != single %v", i, it.Result.PredictedSeconds, singles[i].PredictedSeconds)
		}
		if it.Result.PredictedSlowdown != singles[i].PredictedSlowdown {
			t.Fatalf("slot %d: slowdown %v != %v", i, it.Result.PredictedSlowdown, singles[i].PredictedSlowdown)
		}
		if it.Result.Cached || singles[i].Cached {
			t.Fatalf("slot %d: a reply claims a cache hit; the server has no cache", i)
		}
	}

	// A second batch recomputes every slot identically.
	w = postJSON(t, h, "/v1/predict/batch", map[string]any{"scenarios": batchScenarios})
	again := decodeBody[BatchResponse](t, w)
	for i, it := range again.Results {
		if it.Result.PredictedSeconds != singles[i].PredictedSeconds {
			t.Fatalf("slot %d: repeat batch diverged", i)
		}
	}
}

// distinctScenarios enumerates scenarios no two of which share a
// canonical form: every target and P-state of the model under every multiset of
// minCo to maxCo co-runners drawn from its first three applications.
func distinctScenarios(m *core.Model, minCo, maxCo int) []ScenarioRequest {
	apps := m.Apps()
	var scs []ScenarioRequest
	for n := minCo; n <= maxCo; n++ {
		for a := 0; a <= n; a++ {
			for b := 0; a+b <= n; b++ {
				co := make([]string, n) // a of apps[0], b of apps[1], the rest apps[2]
				for i := range co {
					switch {
					case i < a:
						co[i] = apps[0]
					case i < a+b:
						co[i] = apps[1]
					default:
						co[i] = apps[2]
					}
				}
				for _, target := range apps {
					for ps := 0; ps < m.PStates(); ps++ {
						scs = append(scs, ScenarioRequest{Target: target, CoApps: co, PState: ps})
					}
				}
			}
		}
	}
	return scs
}

// One bad slot fails alone; the rest of the batch is still evaluated in
// the batched call.
func TestBatchMixedValidAndInvalidSlots(t *testing.T) {
	s := neuralTestServer(t, Config{})
	h := s.Handler()
	w := postJSON(t, h, "/v1/predict/batch", map[string]any{"scenarios": []map[string]any{
		{"target": "canneal", "co_apps": []string{"cg"}, "pstate": 0},
		{"target": "nosuchapp", "co_apps": []string{"cg"}, "pstate": 0},
		{"target": "ep", "co_apps": []string{"cg"}, "pstate": 99},
		{"target": "cg", "co_apps": []string{"ep"}, "pstate": 1},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d: %s", w.Code, w.Body.String())
	}
	resp := decodeBody[BatchResponse](t, w)
	if resp.Errors != 2 {
		t.Fatalf("errors = %d, want 2", resp.Errors)
	}
	if resp.Results[0].Result == nil || resp.Results[3].Result == nil {
		t.Fatal("valid slots missing results")
	}
	if resp.Results[1].Error == nil || resp.Results[1].Error.Code != CodeUnknownApp {
		t.Fatalf("slot 1 error = %+v", resp.Results[1].Error)
	}
	if resp.Results[2].Error == nil || resp.Results[2].Error.Code != CodeBadPState {
		t.Fatalf("slot 2 error = %+v", resp.Results[2].Error)
	}
}

// TestBatchBoundsMeet pins the batch limit against the body bound: a
// full batch of the longest legal 12-core scenario (every core busy, the
// longest application name in every slot) fits under maxBodyBytes, so
// one row past the limit is the typed batch-limit 400, never the 413
// body_too_large.
func TestBatchBoundsMeet(t *testing.T) {
	longest := ""
	for _, a := range workload.All() {
		if len(a.Name) > len(longest) {
			longest = a.Name
		}
	}
	spec := simproc.XeonE52697v2()
	co := make([]string, spec.Cores-1)
	for i := range co {
		co[i] = longest
	}
	rows := make([]ScenarioRequest, maxBatch+1)
	for i := range rows {
		rows[i] = ScenarioRequest{Target: longest, CoApps: co, PState: spec.PStates.Len() - 1}
	}
	full, err := json.Marshal(BatchRequest{Model: "primary", Scenarios: rows[:maxBatch]})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) > maxBodyBytes {
		t.Fatalf("a full batch of %q rows is %d bytes, over the %d-byte body bound", longest, len(full), maxBodyBytes)
	}
	s, _ := newTestServer(t, Config{})
	w := postJSON(t, s.Handler(), "/v1/predict/batch", BatchRequest{Model: "primary", Scenarios: rows})
	if w.Code != http.StatusBadRequest || errCode(t, w) != CodeBadRequest ||
		!strings.Contains(w.Body.String(), "exceeds limit "+strconv.Itoa(maxBatch)) {
		t.Fatalf("%d rows: status %d, body %.200s", maxBatch+1, w.Code, w.Body.String())
	}
}

// TestNegativeTimeoutIsDefault: a negative RequestTimeout takes the
// default, as 0 does, instead of expiring every request on arrival.
func TestNegativeTimeoutIsDefault(t *testing.T) {
	s, _ := newTestServer(t, Config{RequestTimeout: -time.Second})
	w := postJSON(t, s.Handler(), "/v1/predict/batch", BatchRequest{Scenarios: []ScenarioRequest{{Target: "cg", CoApps: []string{"ep"}}}})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if resp := decodeBody[BatchResponse](t, w); len(resp.Results) != 1 || resp.Results[0].Error != nil {
		t.Fatalf("slot failed: %s", w.Body.String())
	}
	if w := postJSON(t, s.Handler(), "/v1/placements", placementsBody()); w.Code != http.StatusOK {
		t.Fatalf("placements: status %d: %s", w.Code, w.Body.String())
	}
}

// batchOracle is the reply /v1/predict/batch is specified to give body:
// encoding/json's rendering of the BatchResponse built by decodeStrict,
// each slot validated against the model's own names and P-states, and
// every valid slot predicted in one PredictScenarios call. It returns the
// status and the body bytes (none when the reply cannot be encoded).
func batchOracle(t testing.TB, s *Server, body []byte) (int, []byte) {
	t.Helper()
	render := func(status int, v any) (int, []byte) {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			return status, nil
		}
		return status, buf.Bytes()
	}
	var req BatchRequest
	if e := decodeStrict(body, &req); e != nil {
		return render(errBody(e))
	}
	if len(req.Scenarios) == 0 {
		return render(errBody(badRequest(CodeBadRequest, "scenarios must not be empty")))
	}
	if len(req.Scenarios) > maxBatch {
		return render(errBody(badRequest(CodeBadRequest, "batch of %d exceeds limit %d", len(req.Scenarios), maxBatch)))
	}
	rm, e := s.resolveModel(req.Model)
	if e != nil {
		return render(errBody(e))
	}
	m, known := rm.m, strings.Join(rm.m.Apps(), ", ")
	out := &BatchResponse{Model: rm.name, Results: make([]BatchItem, len(req.Scenarios))}
	var valid []features.Scenario
	for i, sr := range req.Scenarios {
		var e *Error
		switch {
		case sr.Target == "":
			e = badRequest(CodeBadRequest, "target must be set")
		case !m.HasApp(sr.Target):
			e = badRequest(CodeUnknownApp, "unknown target %q (known: %s)", sr.Target, known)
		default:
			for _, a := range sr.CoApps {
				if !m.HasApp(a) {
					e = badRequest(CodeUnknownApp, "unknown co-app %q (known: %s)", a, known)
					break
				}
			}
			if e == nil && (sr.PState < 0 || sr.PState >= m.PStates()) {
				e = badRequest(CodeBadPState, "P-state %d out of range [0,%d)", sr.PState, m.PStates())
			}
		}
		if e != nil {
			out.Results[i].Error = &errorDetail{Code: e.Code, Message: e.Message}
			out.Errors++
			continue
		}
		out.Results[i].Result = &PredictResponse{Model: rm.name, Generation: rm.gen, Spec: m.Spec.String(),
			Target: sr.Target, CoApps: sr.CoApps, PState: sr.PState}
		valid = append(valid, sr.scenario())
	}
	if len(valid) > 0 {
		preds, err := m.PredictScenarios(valid)
		if err != nil {
			t.Fatalf("body %q: PredictScenarios: %v", body, err)
		}
		for _, it := range out.Results {
			if p := it.Result; p != nil {
				base, err := m.BaselineSeconds(p.Target, p.PState)
				if err != nil {
					t.Fatal(err)
				}
				p.PredictedSeconds, p.PredictedSlowdown, p.BaselineSeconds = preds[0], preds[0]/base, base
				preds = preds[1:]
			}
		}
	}
	return render(http.StatusOK, out)
}

// checkBatchReply posts body to the batch endpoint and holds the reply
// to batchOracle's, status and bytes.
func checkBatchReply(t testing.TB, s *Server, body []byte) {
	t.Helper()
	w := postRaw(s.Handler(), "/v1/predict/batch", string(body))
	status, want := batchOracle(t, s, body)
	if w.Code != status || !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("body %q:\nserved %d %s\noracle %d %s", body, w.Code, w.Body.Bytes(), status, want)
	}
}

// batchBodies returns n random batch bodies: the wide shape (a target,
// a P-state and 0–5 co-runners per row, null or empty co-apps now and
// then), slots naming an unknown target or co-app or a P-state out of
// range, names spelled with JSON escapes, the model named before or
// after the scenarios, absent or unknown, and whitespace between tokens.
func batchBodies(m *core.Model, seed uint64, n int) [][]byte {
	rng := rand.New(rand.NewPCG(seed, 45))
	apps := m.Apps()
	ws := func() string { return []string{"", "", "", "", " ", "\n", "\t", "\r\n  "}[rng.IntN(8)] }
	plain := false // no escapes and no null co-apps: a body the fast decoder takes
	name := func() string {
		a := apps[rng.IntN(len(apps))]
		switch rng.IntN(20) {
		case 0:
			a = "ghost"
		case 1:
			if !plain {
				return strconv.Quote(a)[:1] + `\u00` + strconv.FormatInt(int64(a[0]), 16) + a[1:] + `"`
			}
		case 2:
			return `""`
		}
		return strconv.Quote(a)
	}
	var bodies [][]byte
	for len(bodies) < n {
		plain = rng.IntN(2) == 0
		var b strings.Builder
		model := []string{"", "", `"nn"`, `"ghost"`}[rng.IntN(4)]
		after := rng.IntN(3) == 0
		b.WriteString(ws() + "{" + ws())
		if model != "" && !after {
			b.WriteString(`"model"` + ws() + ":" + ws() + model + ws() + "," + ws())
		}
		b.WriteString(`"scenarios"` + ws() + ":" + ws() + "[")
		for i, rows := 0, 1+rng.IntN(70); i < rows; i++ {
			if i > 0 {
				b.WriteString(ws() + "," + ws())
			}
			ps := rng.IntN(m.PStates())
			if rng.IntN(25) == 0 {
				ps = []int{-1, m.PStates(), 99}[rng.IntN(3)]
			}
			fields := []string{`"target"` + ws() + ":" + ws() + name(), `"pstate"` + ws() + ":" + ws() + strconv.Itoa(ps)}
			switch k := rng.IntN(6); {
			case !plain && rng.IntN(15) == 0: // co_apps left out: null
			default:
				co := make([]string, k)
				for j := range co {
					co[j] = name()
				}
				fields = append(fields, `"co_apps"`+ws()+":"+ws()+"["+ws()+strings.Join(co, ws()+","+ws())+ws()+"]")
			}
			if rng.IntN(4) == 0 {
				rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
			}
			b.WriteString("{" + ws() + strings.Join(fields, ws()+","+ws()) + ws() + "}")
		}
		b.WriteString(ws() + "]")
		if model != "" && after {
			b.WriteString(ws() + "," + ws() + `"model"` + ws() + ":" + ws() + model)
		}
		b.WriteString(ws() + "}" + ws())
		bodies = append(bodies, []byte(b.String()))
	}
	return bodies
}

// TestBatchReplyMatchesOracle: the served batch reply is byte for byte
// batchOracle's, over a fixed-seed stream of bodies in and out of the
// fast decoder's form.
func TestBatchReplyMatchesOracle(t *testing.T) {
	s := neuralTestServer(t, Config{})
	m, _, err := s.Registry().Get("")
	if err != nil {
		t.Fatal(err)
	}
	fast := 0
	bodies := batchBodies(m, 1, 400)
	for _, body := range bodies {
		if fastDecoders["batch"](body) {
			fast++
		}
		checkBatchReply(t, s, body)
	}
	// The stream must exercise both decoders.
	if fast < len(bodies)/10 || fast > len(bodies)-len(bodies)/10 {
		t.Fatalf("the fast decoder took %d of %d bodies", fast, len(bodies))
	}
}

// FuzzBatchReply holds the served batch reply to batchOracle's for
// arbitrary bodies.
func FuzzBatchReply(f *testing.F) {
	s := neuralTestServer(f, Config{})
	m, _, err := s.Registry().Get("")
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range batchBodies(m, 2, 24) {
		f.Add(body)
	}
	for _, body := range append(canonicalBatchBodies, fallbackBatchBodies...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBatchReply(t, s, body)
	})
}
