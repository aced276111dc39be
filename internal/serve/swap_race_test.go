package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/obs"
	"colocmodel/internal/testeq"
)

// TestHotSwapNeverMislabelsGeneration hammers single predicts and
// observations without a predicted_seconds from several goroutines while
// the registry hot-swaps round a ring of distinct models many times.
// Generation g serves models[(g-1) % len(models)], so every value names
// its model and every label names the model it must come from. The
// invariants under test: a reply's predicted_seconds is exactly the
// model its generation label names — never an older and never a newer
// one — an observation is logged under the generation of the model that
// predicted it, and the generations one reader resolves never decrease.
// The label and the model are published in one value, so they cannot
// come apart however the swaps interleave. Run under -race.
func TestHotSwapNeverMislabelsGeneration(t *testing.T) {
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

	// The probe scenarios, and each model's exact prediction for them:
	// the value identifies the model.
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
				t.Fatalf("models %d and %d agree exactly on scenario %d; cannot attribute values", prev, mi, si)
			}
			want[si][v] = mi
		}
	}
	// check attributes one served value to its model and holds it to
	// the model its generation names.
	check := func(si int, gen uint64, v float64, what string) error {
		mi, known := want[si][v]
		if !known {
			return fmt.Errorf("%s at generation %d carries a value belonging to no model: %v", what, gen, v)
		}
		if wantMi := int((gen - 1) % numModels); mi != wantMi {
			return fmt.Errorf("MISLABELLED: %s at generation %d carries model %d's value %v, want model %d's", what, gen, mi, v, wantMi)
		}
		return nil
	}

	reg := NewRegistry()
	if err := reg.Add("primary", "", models[0]); err != nil { // generation 1
		t.Fatal(err)
	}
	s := New(reg, Config{})

	// Swapper: generation g+1 is models[g % numModels].
	const swaps = 2000
	var stop atomic.Bool
	var swapErr error
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		defer stop.Store(true)
		for g := 1; g <= swaps; g++ {
			if err := reg.Swap("primary", models[g%numModels]); err != nil {
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
				si := (i + r) % len(scenarios)
				sc := scenarios[si]
				if i%3 == 2 {
					o, _, e := s.buildObservation(nil, ObservationRequest{Target: sc.Target, CoApps: sc.CoApps, PState: sc.PState, MeasuredSeconds: 1})
					if e != nil {
						errs <- fmt.Errorf("buildObservation: %s", e.Message)
						return
					}
					if err := check(si, o.Generation, o.PredictedSeconds, "observation"); err != nil {
						errs <- err
						return
					}
					continue
				}
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
				if e := predictOne(obs.Span{}, &rm, sc, &resp); e != nil {
					errs <- fmt.Errorf("predictOne: %s", e.Message)
					return
				}
				if err := check(si, resp.Generation, resp.PredictedSeconds, "predict"); err != nil {
					errs <- err
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
	if gen != swaps+1 || m != models[swaps%numModels] {
		t.Fatalf("after %d swaps: generation %d, model index wrong", swaps, gen)
	}
}

// TestHotSwapRepliesCarryOneSnapshot drives /v1/predict and
// /v1/predict/batch from several goroutines while the registry swaps
// back and forth between two models whose baselines differ (the test
// dataset, and a copy with every baseline scaled). The model, the
// serving table validation and the baseline are read from, and the
// generation sit behind one pointer, so every row is one model's
// through and through: its baseline_seconds is bit for bit a baseline of
// exactly one of the two, predicted_seconds is that model's prediction,
// predicted_slowdown their quotient, and its generation is one that
// model was served under; and all rows of one batch reply carry one
// generation and one model.
func TestHotSwapRepliesCarryOneSnapshot(t *testing.T) {
	ds := testDataset(t)
	scaled := *ds
	scaled.Baselines = make(map[string]harness.Baseline, len(ds.Baselines))
	for name, b := range ds.Baselines {
		b.SecondsByPState = slices.Clone(b.SecondsByPState)
		for ps := range b.SecondsByPState {
			b.SecondsByPState[ps] *= 1.25
		}
		scaled.Baselines[name] = b
	}
	set, err := features.SetByName("F")
	if err != nil {
		t.Fatal(err)
	}
	// The second model is also fitted to fewer records, so that the two
	// disagree by more than rounding.
	var models [2]*core.Model
	for i, d := range []*harness.Dataset{ds, &scaled} {
		if models[i], err = core.Train(core.Spec{Technique: core.Linear, FeatureSet: set, Seed: 1}, d, d.Records[i*len(d.Records)/3:]); err != nil {
			t.Fatal(err)
		}
	}
	scenarios := distinctScenarios(models[0], 1, 2)[:48]
	// base[mi][si] and pred[mi][si]: what model mi says of scenario si.
	var base, pred [2][]float64
	for mi, m := range models {
		for _, sr := range scenarios {
			b, err := m.BaselineSeconds(sr.Target, sr.PState)
			if err != nil {
				t.Fatal(err)
			}
			p, err := m.Predict(sr.scenario())
			if err != nil {
				t.Fatal(err)
			}
			base[mi], pred[mi] = append(base[mi], b), append(pred[mi], p)
		}
	}
	for si := range scenarios {
		if pred[0][si] == pred[1][si] || base[0][si] == base[1][si] {
			t.Fatalf("the models agree on scenario %d; a row could not be attributed", si)
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	// attribute names the model a row is from, or says what is wrong
	// with it. Generation g serves models[(g-1) % 2].
	attribute := func(row *PredictResponse, si int) (int, error) {
		for mi := range models {
			if !same(row.BaselineSeconds, base[mi][si]) {
				continue
			}
			if !same(row.PredictedSeconds, pred[mi][si]) || !same(row.PredictedSlowdown, pred[mi][si]/base[mi][si]) {
				return 0, fmt.Errorf("row %+v: model %d's baseline %v beside a prediction that is not its %v", *row, mi, base[mi][si], pred[mi][si])
			}
			if row.Cached || int((row.Generation-1)%2) != mi {
				return 0, fmt.Errorf("row %+v: model %d's values under a label it was not served with", *row, mi)
			}
			return mi, nil
		}
		return 0, fmt.Errorf("row %+v belongs to neither model", *row)
	}
	batchBody, err := json.Marshal(BatchRequest{Scenarios: scenarios})
	if err != nil {
		t.Fatal(err)
	}
	singleBodies := make([]string, len(scenarios))
	for si, sr := range scenarios {
		raw, err := json.Marshal(sr)
		if err != nil {
			t.Fatal(err)
		}
		singleBodies[si] = string(raw)
	}

	reg := NewRegistry()
	if err := reg.Add("primary", "", models[0]); err != nil {
		t.Fatal(err)
	}
	h := New(reg, Config{}).Handler()

	// The swapper paces itself by the readers' progress, so every
	// generation is read from, and stops them after the last swap.
	const swaps, requestsPerSwap, readers = 400, 4, 4
	var served atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1 + readers)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 1; i <= swaps; i++ {
			for served.Load() < int64(i*requestsPerSwap) && !t.Failed() {
				runtime.Gosched()
			}
			if err := reg.Swap("primary", models[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				served.Add(1)
				if i%2 == 0 {
					si := i / 2 % len(scenarios)
					w := postRaw(h, "/v1/predict", singleBodies[si])
					var row PredictResponse
					if err := json.Unmarshal(w.Body.Bytes(), &row); w.Code != http.StatusOK || err != nil {
						t.Errorf("predict: %d %v: %s", w.Code, err, w.Body)
						return
					}
					if _, err := attribute(&row, si); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				w := postRaw(h, "/v1/predict/batch", string(batchBody))
				var reply BatchResponse
				if err := json.Unmarshal(w.Body.Bytes(), &reply); w.Code != http.StatusOK || err != nil || reply.Errors != 0 || len(reply.Results) != len(scenarios) {
					t.Errorf("batch: %d %v: %s", w.Code, err, w.Body)
					return
				}
				first, firstModel := reply.Results[0].Result, 0
				for si, it := range reply.Results {
					mi, err := attribute(it.Result, si)
					if err != nil {
						t.Error(err)
						return
					}
					if si == 0 {
						firstModel = mi
					}
					if mi != firstModel || it.Result.Generation != first.Generation {
						t.Errorf("one batch reply, two snapshots: row 0 is model %d at generation %d, row %d model %d at generation %d",
							firstModel, first.Generation, si, mi, it.Result.Generation)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestEvalBitIdentical pins the serving tier's eval path to the testeq
// equivalence contract: /v1/predict and /v1/predict/batch reproduce the
// interpreted reference bit for bit.
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
		h := New(reg, Config{}).Handler()
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
