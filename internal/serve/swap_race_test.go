package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/obs"
)

// TestCacheNeverServesStaleGenerationDuringSwaps hammers the sharded
// prediction cache with concurrent reads while the registry hot-swaps
// through a sequence of distinct models. The invariant under test: a
// response carrying generation g never holds a value computed by a
// model *older* than generation g. (The registry documents the benign
// inverse race — a newer model under an older generation when a swap
// lands between the generation load and the pointer load — so newer
// is allowed; stale is the bug.) Cache keys embed the generation, so
// every swap implicitly invalidates; a hit on a stale key would
// surface here as a generation/value mismatch. Run under -race.
func TestCacheNeverServesStaleGenerationDuringSwaps(t *testing.T) {
	ds := testDataset(t)

	// K distinct models: each trains on a rotated two-thirds of the
	// records, so their linear fits — and predictions — differ.
	const numModels = 4
	set, err := features.SetByName("F")
	if err != nil {
		t.Fatal(err)
	}
	models := make([]*core.Model, numModels)
	for i := range models {
		var records []harness.Record
		for j, r := range ds.Records {
			if (j+i)%3 != 0 {
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
	s := New(reg, Config{CacheSize: 1 << 12})

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
				var resp PredictResponse
				if e := s.predictOne(obs.Span{}, &rm, sc, &resp); e != nil {
					errs <- fmt.Errorf("predictOne: %s", e.Message)
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
