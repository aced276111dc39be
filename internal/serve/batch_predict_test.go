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
// single-predict endpoint, with and without the cache in the loop.
func TestBatchMatchesSinglePredict(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cache_disabled", Config{CacheSize: -1}},
		{"cache_enabled", Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := neuralTestServer(t, tc.cfg)
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
				if tc.cfg.CacheSize >= 0 && !it.Result.Cached {
					t.Fatalf("slot %d: expected a cache hit after single predicts warmed the cache", i)
				}
			}

			// A second batch must serve every slot from the cache (or, with
			// the cache disabled, recompute identically).
			w = postJSON(t, h, "/v1/predict/batch", map[string]any{"scenarios": batchScenarios})
			again := decodeBody[BatchResponse](t, w)
			for i, it := range again.Results {
				if it.Result.PredictedSeconds != singles[i].PredictedSeconds {
					t.Fatalf("slot %d: repeat batch diverged", i)
				}
			}
		})
	}
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

// keyScratch must produce byte-for-byte the key ScenarioKey returns, for
// any co-app ordering, so byte-keyed and string-keyed access always agree.
func TestKeyScratchMatchesScenarioKey(t *testing.T) {
	scs := []features.Scenario{
		{Target: "cg", CoApps: []string{"ep", "cg", "canneal"}, PState: 2},
		{Target: "canneal", CoApps: nil, PState: 0},
		{Target: "ep", CoApps: []string{"x"}, PState: 11},
		{Target: "cg", CoApps: []string{"b", "a", "b", "a"}, PState: 1},
	}
	var ks keyScratch
	for _, sc := range scs {
		want := ScenarioKey("model-1", 42, sc)
		ks.build("model-1", 42, sc)
		if string(ks.buf) != want {
			t.Fatalf("keyScratch %q != ScenarioKey %q", ks.buf, want)
		}
	}
}

// The warmed cache-hit lookup path — key build into pooled scratch plus a
// byte-keyed shard probe — must not allocate.
func TestCacheHitLookupZeroAllocs(t *testing.T) {
	c := NewCache(1024)
	sc := features.Scenario{Target: "canneal", CoApps: []string{"ep", "cg"}, PState: 1}
	ks := keyPool.Get().(*keyScratch)
	defer keyPool.Put(ks)
	ks.build("primary", 7, sc)
	c.Put(string(ks.buf), prediction{Seconds: 3.5, Slowdown: 1.2})

	hits := 0
	allocs := testing.AllocsPerRun(200, func() {
		ks.build("primary", 7, sc)
		if _, ok := c.Get(ks.buf); ok {
			hits++
		}
	})
	if hits == 0 {
		t.Fatal("lookup never hit")
	}
	if allocs != 0 {
		t.Fatalf("cache-hit lookup allocates %v per run, want 0", allocs)
	}
}
