package serve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/obs"
	"colocmodel/internal/testeq"
)

// TestCacheNeverServesStaleGenerationDuringSwaps hammers predictOne
// with concurrent reads while the registry hot-swaps through a sequence
// of distinct models — once through the sharded prediction cache, once
// with the cache off so every predict evaluates through Model.Predict.
// The invariants under test: a response carrying generation g never
// holds a value computed by a model *older* than generation g, and the
// generations one reader resolves never decrease. (The registry
// documents the benign inverse race — a newer model under an older
// generation when a swap lands between the generation load and the
// pointer load — so newer is allowed; stale is the bug.) Cache keys
// embed the generation, so every swap implicitly invalidates; a hit on
// a stale key would surface here as a generation/value mismatch. Run
// under -race.
func TestCacheNeverServesStaleGenerationDuringSwaps(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cacheSize int
	}{
		{"cached", 1 << 12},
		{"uncached", -1},
	} {
		t.Run(tc.name, func(t *testing.T) { swapRace(t, tc.cacheSize) })
	}
}

func swapRace(t *testing.T, cacheSize int) {
	ds := testDataset(t)

	// K distinct models: each drops a different fifth of the records
	// (modulus K+1, so no two rotations coincide), so their linear fits
	// — and predictions — differ.
	const numModels = 4
	set, err := features.SetByName("F")
	if err != nil {
		t.Fatal(err)
	}
	models := make([]*core.Model, numModels)
	for i := range models {
		var records []harness.Record
		for j, r := range ds.Records {
			if (j+i)%(numModels+1) != 0 {
				records = append(records, r)
			}
		}
		m, err := core.Train(core.Spec{Technique: core.Linear, FeatureSet: set, Seed: uint64(i + 1)}, ds, records)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}

	// The probe scenarios, and each model's exact prediction for them.
	// predictOne must return one of these values bit-for-bit (the cache
	// stores exact float64s), so the value identifies the model.
	scenarios := []features.Scenario{
		{Target: "canneal", CoApps: []string{"cg", "cg", "cg"}, PState: 0},
		{Target: "cg", CoApps: []string{"ep"}, PState: 1},
		{Target: "ep", CoApps: []string{"cg", "ep", "cg"}, PState: 0},
		{Target: "canneal", CoApps: []string{"ep"}, PState: 1},
	}
	want := make([]map[float64]int, len(scenarios)) // value -> model index
	for si, sc := range scenarios {
		want[si] = make(map[float64]int, numModels)
		for mi, m := range models {
			v, err := m.Predict(sc)
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := want[si][v]; dup && prev != mi {
				t.Skipf("models %d and %d agree exactly on scenario %d; cannot attribute values", prev, mi, si)
			}
			want[si][v] = mi
		}
	}

	reg := NewRegistry()
	if err := reg.Add("primary", "", models[0]); err != nil { // generation 1
		t.Fatal(err)
	}
	s := New(reg, Config{CacheSize: cacheSize})

	// Swapper: one-directional walk through the remaining models.
	// Generation after swapping in models[i] is i+1, so model index ==
	// generation-1 and "stale" means valueIndex < gen-1.
	var stop atomic.Bool
	var swapErr error
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		defer stop.Store(true)
		for i := 1; i < numModels; i++ {
			for k := 0; k < 500; k++ { // let readers hammer each generation
				if _, _, err := reg.Get("primary"); err != nil {
					swapErr = err
					return
				}
			}
			if err := reg.Swap("primary", models[i]); err != nil {
				swapErr = err
				return
			}
		}
	}()

	const readers = 8
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			var lastGen uint64
			for i := 0; ; i++ {
				if stop.Load() && i%len(scenarios) == 0 {
					errs <- nil
					return
				}
				sc := scenarios[(i+r)%len(scenarios)]
				rm, e := s.resolveModel("primary")
				if e != nil {
					errs <- e
					return
				}
				if rm.gen < lastGen {
					errs <- fmt.Errorf("generation went backwards: %d after %d", rm.gen, lastGen)
					return
				}
				lastGen = rm.gen
				var resp PredictResponse
				if e := s.predictOne(obs.Span{}, &rm, sc, &resp); e != nil {
					errs <- fmt.Errorf("predictOne: %s", e.Message)
					return
				}
				if cacheSize < 0 && resp.Cached {
					errs <- fmt.Errorf("cache disabled but response claims a hit")
					return
				}
				mi, known := want[(i+r)%len(scenarios)][resp.PredictedSeconds]
				if !known {
					errs <- fmt.Errorf("generation %d returned a value belonging to no model: %v", resp.Generation, resp.PredictedSeconds)
					return
				}
				if uint64(mi) < resp.Generation-1 {
					errs <- fmt.Errorf("STALE: generation %d served model %d's value %v", resp.Generation, mi, resp.PredictedSeconds)
					return
				}
			}
		}(r)
	}
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	swapWG.Wait()
	if swapErr != nil {
		t.Fatal(swapErr)
	}
	// The walk finished: the final generation serves the final model.
	m, gen, err := reg.Get("primary")
	if err != nil {
		t.Fatal(err)
	}
	if gen != numModels || m != models[numModels-1] {
		t.Fatalf("after %d swaps: generation %d, model index wrong", numModels-1, gen)
	}
}

// TestEvalBitIdentical pins the serving tier's eval path to the testeq
// equivalence contract: with the cache off, /v1/predict and
// /v1/predict/batch reproduce the interpreted reference bit for bit.
func TestEvalBitIdentical(t *testing.T) {
	gen := testeq.New(23, testeq.GenConfig{})
	for i := 0; i < 10; i++ {
		m, err := gen.Model()
		if err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry()
		if err := reg.Add("m", "", m); err != nil {
			t.Fatal(err)
		}
		h := New(reg, Config{CacheSize: -1}).Handler()
		scs := gen.Scenarios(m, 16)
		want, err := m.PredictScenariosInterpreted(scs)
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]ScenarioRequest, len(scs))
		for j, sc := range scs {
			reqs[j] = ScenarioRequest{Target: sc.Target, CoApps: sc.CoApps, PState: sc.PState}
			one := decodeBody[PredictResponse](t, postJSON(t, h, "/v1/predict", reqs[j]))
			if math.Float64bits(one.PredictedSeconds) != math.Float64bits(want[j]) {
				t.Fatalf("model %d scalar slot %d: %v != %v", i, j, one.PredictedSeconds, want[j])
			}
		}
		batch := decodeBody[BatchResponse](t, postJSON(t, h, "/v1/predict/batch", BatchRequest{Scenarios: reqs}))
		if batch.Errors != 0 || len(batch.Results) != len(scs) {
			t.Fatalf("model %d batch: errors=%d results=%d", i, batch.Errors, len(batch.Results))
		}
		for j, it := range batch.Results {
			if math.Float64bits(it.Result.PredictedSeconds) != math.Float64bits(want[j]) {
				t.Fatalf("model %d batch slot %d: %v != %v", i, j, it.Result.PredictedSeconds, want[j])
			}
		}
	}
}
