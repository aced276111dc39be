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

// TestReplicaSetAcquireRelease pins the slot lifecycle: a slot compiles
// once, keeps its instance across acquire/release cycles, and recompiles
// only when the model pointer changes (a hot-swap).
func TestReplicaSetAcquireRelease(t *testing.T) {
	gen := testeq.New(21, testeq.GenConfig{})
	m1, err := gen.Model()
	if err != nil {
		t.Fatal(err)
	}
	rs := newReplicaSet(1)

	c1, slot := rs.acquire(m1)
	if c1 == nil {
		t.Fatal("acquire returned no replica for a compiled model")
	}
	slot.release()
	c2, slot := rs.acquire(m1)
	if c2 != c1 {
		t.Fatal("slot recompiled for an unchanged model")
	}
	slot.release()

	m2, err := gen.Model()
	if err != nil {
		t.Fatal(err)
	}
	c3, slot := rs.acquire(m2)
	if c3 == nil {
		t.Fatal("acquire returned no replica after swap")
	}
	if c3 == c1 {
		t.Fatal("slot served the old model's replica for a new model")
	}
	if got := c3.Spec().String(); got != m2.Spec.String() {
		t.Fatalf("replica compiled for %s, want %s", got, m2.Spec)
	}
	slot.release()
}

// TestReplicaSetAllBusy pins the overload valve: with every slot held,
// acquire yields nothing and the eval helpers fall back to the model's
// own path — same answer, no queueing.
func TestReplicaSetAllBusy(t *testing.T) {
	gen := testeq.New(22, testeq.GenConfig{})
	m, err := gen.Model()
	if err != nil {
		t.Fatal(err)
	}
	rs := newReplicaSet(1)
	c, slot := rs.acquire(m)
	if c == nil {
		t.Fatal("first acquire failed")
	}
	defer slot.release()
	if c2, _ := rs.acquire(m); c2 != nil {
		t.Fatal("acquire succeeded with every slot busy")
	}
	sc := gen.Scenarios(m, 1)[0]
	want, err := m.PredictInterpreted(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := evalScalar(rs, m, sc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("busy fallback predicted %v, want %v", got, want)
	}
}

// TestReplicaEvalBitIdentical pins the serving tier's use of the
// compiled path to the testeq equivalence contract: evalScalar and
// evalBatch reproduce the interpreted reference bit for bit.
func TestReplicaEvalBitIdentical(t *testing.T) {
	gen := testeq.New(23, testeq.GenConfig{})
	for i := 0; i < 10; i++ {
		m, err := gen.Model()
		if err != nil {
			t.Fatal(err)
		}
		rs := newReplicaSet(2)
		scs := gen.Scenarios(m, 16)
		wantBatch, err := m.PredictScenariosInterpreted(scs)
		if err != nil {
			t.Fatal(err)
		}
		gotBatch, err := evalBatch(rs, m, scs)
		if err != nil {
			t.Fatal(err)
		}
		for j, sc := range scs {
			got, err := evalScalar(rs, m, sc)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(wantBatch[j]) {
				t.Fatalf("model %d scalar slot %d: %v != %v", i, j, got, wantBatch[j])
			}
			if math.Float64bits(gotBatch[j]) != math.Float64bits(wantBatch[j]) {
				t.Fatalf("model %d batch slot %d: %v != %v", i, j, gotBatch[j], wantBatch[j])
			}
		}
	}
}

// TestReplicasRaceHotSwap is the replica-path counterpart of the cache
// swap soak: with the cache disabled, every predict is a miss and flows
// through a per-P-core replica while the registry hot-swaps through a
// sequence of distinct models. Invariants, under -race:
//
//   - a response's value always belongs to a model at least as new as
//     the generation it reports (replicas lag a swap by at most one
//     acquisition, never backwards);
//   - generations observed by one reader never decrease.
func TestReplicasRaceHotSwap(t *testing.T) {
	ds := testDataset(t)
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
		if !m.IsCompiled() {
			t.Fatalf("trained model %d is not compiled", i)
		}
		models[i] = m
	}

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
	if err := reg.Add("primary", "", models[0]); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{CacheSize: -1}) // no cache: every predict is a replica-path miss

	var stop atomic.Bool
	var swapErr error
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		defer stop.Store(true)
		for i := 1; i < numModels; i++ {
			for k := 0; k < 500; k++ {
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
				rm, e := s.resolveModel("")
				gen := rm.gen
				if e != nil {
					errs <- fmt.Errorf("resolveModel: %s", e.Message)
					return
				}
				if gen < lastGen {
					errs <- fmt.Errorf("generation went backwards: %d after %d", gen, lastGen)
					return
				}
				lastGen = gen
				var resp PredictResponse
				if e := s.predictOne(obs.Span{}, &rm, sc, &resp); e != nil {
					errs <- fmt.Errorf("predictOne: %s", e.Message)
					return
				}
				if resp.Cached {
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
	// Settled state: the last model serves, and a fresh acquisition pins
	// a replica of it.
	e, err2 := reg.lookup("primary")
	if err2 != nil {
		t.Fatal(err2)
	}
	sm, _ := e.snapshot()
	m := sm.m
	if m != models[numModels-1] {
		t.Fatal("final model not in service after swaps")
	}
	c, slot := e.reps.acquire(m)
	if c == nil {
		t.Fatal("no replica available after the soak settled")
	}
	slot.release()
}
