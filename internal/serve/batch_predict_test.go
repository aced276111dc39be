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
// single-predict endpoint, whether or not the single predicts go
// through the cache; the batch itself never does.
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
				if it.Result.Cached {
					t.Fatalf("slot %d: a batch row claims a cache hit; batches are evaluated without the memo", i)
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
		})
	}
}

// distinctScenarios enumerates scenarios no two of which share a cache
// key: every target and P-state of the model under every multiset of
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

// A batch neither reads nor fills the prediction cache: a what-if sweep
// larger than the cache leaves the single-predict working set, and the
// three cache series, exactly where they were.
func TestBatchLeavesPredictMemoAlone(t *testing.T) {
	s, m := newTestServer(t, Config{CacheSize: 64})
	h := s.Handler()
	apps := m.Apps()
	var singles []ScenarioRequest
	for i := 0; i < 8; i++ {
		singles = append(singles, ScenarioRequest{Target: apps[i%len(apps)], CoApps: []string{apps[(i/3)%len(apps)]}, PState: i % m.PStates()})
	}
	allCached := func(when string) {
		t.Helper()
		for i, sr := range singles {
			if r := decodeBody[PredictResponse](t, postJSON(t, h, "/v1/predict", sr)); !r.Cached {
				t.Fatalf("%s: single predict %d is not served from the cache", when, i)
			}
		}
	}
	cacheSeries := func() [3]float64 {
		body := get(t, h, "/metrics").Body.String()
		return [3]float64{
			metricValue(t, body, "coloserve_cache_entries"),
			metricValue(t, body, "coloserve_cache_hits_total"),
			metricValue(t, body, "coloserve_cache_misses_total"),
		}
	}
	for _, sr := range singles {
		postJSON(t, h, "/v1/predict", sr)
	}
	allCached("warmed")
	before := cacheSeries()

	// 256 distinct scenarios, none of them one of the singles (two to
	// five co-runners each): four times what the cache holds.
	sweep := BatchRequest{Scenarios: distinctScenarios(m, 2, 5)[:256]}
	w := postJSON(t, h, "/v1/predict/batch", sweep)
	batch := decodeBody[BatchResponse](t, w)
	if w.Code != http.StatusOK || batch.Errors != 0 || len(batch.Results) != 256 {
		t.Fatalf("batch: %d, %d errors, %d results", w.Code, batch.Errors, len(batch.Results))
	}
	for i, it := range batch.Results {
		if it.Result.Cached {
			t.Fatalf("batch row %d claims a cache hit", i)
		}
	}
	if after := cacheSeries(); after != before {
		t.Fatalf("cache entries/hits/misses moved across the batch: %v -> %v", before, after)
	}
	allCached("after the batch")
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
