package serve

import (
	"net/http"
	"testing"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/mlp"
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
