package core

import (
	"bytes"
	"maps"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/mlp"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

// testDataset collects a reduced 6-core dataset once and shares it across
// tests (collection is deterministic).
var (
	dsOnce sync.Once
	dsVal  *harness.Dataset
	dsErr  error
)

func testDataset(t testing.TB) *harness.Dataset {
	t.Helper()
	dsOnce.Do(func() {
		cg, _ := workload.ByName("cg")
		sp, _ := workload.ByName("sp")
		ep, _ := workload.ByName("ep")
		canneal, _ := workload.ByName("canneal")
		fluid, _ := workload.ByName("fluidanimate")
		plan := harness.Plan{
			Spec:       simproc.XeonE5649(),
			Targets:    []workload.App{cg, canneal, fluid, ep},
			CoApps:     []workload.App{cg, sp, ep},
			CoCounts:   []int{1, 2, 3, 5},
			PStates:    []int{0, 2, 4},
			NoiseSigma: 0.01,
			Seed:       5,
		}
		dsVal, dsErr = harness.Collect(plan)
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsVal
}

func TestTechniqueString(t *testing.T) {
	if Linear.String() != "linear" || NeuralNet.String() != "neural-net" {
		t.Fatal("technique names wrong")
	}
	if Technique(9).String() == "" {
		t.Fatal("unknown technique empty")
	}
}

func TestAllSpecsTwelveModels(t *testing.T) {
	specs := AllSpecs(1)
	if len(specs) != 12 {
		t.Fatalf("got %d specs, want 12 (Section V)", len(specs))
	}
	if specs[0].Technique != Linear || specs[0].FeatureSet.Name != "A" {
		t.Fatal("first spec not linear-A")
	}
	if specs[11].Technique != NeuralNet || specs[11].FeatureSet.Name != "F" {
		t.Fatal("last spec not neural-net-F")
	}
	if specs[5].String() != "linear-F" || specs[6].String() != "neural-net-A" {
		t.Fatalf("spec names wrong: %s, %s", specs[5], specs[6])
	}
}

func TestDefaultHiddenNodesInPaperRange(t *testing.T) {
	// "vary in the number of nodes used from ten to twenty depending on
	// the model feature set".
	for _, set := range features.Sets() {
		h := defaultHiddenNodes(len(set.Features))
		if h < 10 || h > 20 {
			t.Errorf("set %s: %d hidden nodes outside [10,20]", set.Name, h)
		}
	}
	if defaultHiddenNodes(1) != 10 || defaultHiddenNodes(8) != 20 {
		t.Fatal("endpoint widths wrong")
	}
}

func TestTrainLinearAndPredict(t *testing.T) {
	ds := testDataset(t)
	set, _ := features.SetByName("C")
	m, err := Train(Spec{Technique: Linear, FeatureSet: set}, ds, ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(features.ScenarioFromRecord(ds.Records[0]))
	if err != nil {
		t.Fatal(err)
	}
	if pred <= 0 || math.IsNaN(pred) {
		t.Fatalf("prediction = %v", pred)
	}
	mpe, nrmse, err := m.Errors(ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	if mpe <= 0 || mpe > 30 || nrmse <= 0 {
		t.Fatalf("training errors MPE=%v NRMSE=%v", mpe, nrmse)
	}
}

func TestTrainNeuralBeatsLinearOnTrainingData(t *testing.T) {
	ds := testDataset(t)
	set, _ := features.SetByName("F")
	lin, err := Train(Spec{Technique: Linear, FeatureSet: set}, ds, ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := Train(Spec{Technique: NeuralNet, FeatureSet: set, Seed: 3}, ds, ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	linMPE, _, err := lin.Errors(ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	nnMPE, _, err := nn.Errors(ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	if nnMPE >= linMPE {
		t.Fatalf("NN-F training MPE %v not better than linear-F %v", nnMPE, linMPE)
	}
}

func TestTrainErrors(t *testing.T) {
	ds := testDataset(t)
	set, _ := features.SetByName("A")
	if _, err := Train(Spec{Technique: Linear, FeatureSet: set}, nil, nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := Train(Spec{Technique: Linear}, ds, ds.Records); err == nil {
		t.Fatal("empty feature set accepted")
	}
	if _, err := Train(Spec{Technique: Technique(9), FeatureSet: set}, ds, ds.Records); err == nil {
		t.Fatal("unknown technique accepted")
	}
	if _, err := Train(Spec{Technique: Linear, FeatureSet: set}, ds, nil); err == nil {
		t.Fatal("no records accepted")
	}
	// A baseline row one P-state short of the machine's table still
	// covers every record, so the fit succeeds; the compiler refuses the
	// model, and so does Train.
	short := *ds
	short.Baselines = maps.Clone(ds.Baselines)
	b := short.Baselines["cg"]
	b.SecondsByPState = b.SecondsByPState[:len(b.SecondsByPState)-1]
	short.Baselines["cg"] = b
	if _, err := Train(Spec{Technique: Linear, FeatureSet: set}, &short, ds.Records); err == nil || !strings.Contains(err.Error(), "compile") {
		t.Fatalf("short baseline row: err = %v, want the compiler's", err)
	}
}

// TestTrainNeuralRejectsBadInput: a negative SCG iteration bound and a
// non-finite feature are errors, not an untrained model (MaxIter -1), a
// panic (-5) or the initial random weights with a NaN loss (±Inf).
func TestTrainNeuralRejectsBadInput(t *testing.T) {
	ds := testDataset(t)
	set, _ := features.SetByName("F")
	for _, n := range []int{-1, -5} {
		spec := Spec{Technique: NeuralNet, FeatureSet: set, Seed: 1, SCG: mlp.SCGConfig{MaxIter: n}}
		if _, err := Train(spec, ds, ds.Records); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("MaxIter %d: err = %v, want a negative-bound error", n, err)
		}
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1)} {
		bad := *ds
		bad.Baselines = maps.Clone(ds.Baselines)
		b := bad.Baselines["cg"]
		b.MemIntensity = v
		bad.Baselines["cg"] = b
		spec := Spec{Technique: NeuralNet, FeatureSet: set, Seed: 1, SCG: mlp.SCGConfig{MaxIter: 50}}
		if _, err := Train(spec, &bad, ds.Records); err == nil || !strings.Contains(err.Error(), "infinite") {
			t.Errorf("cg memory intensity %v: err = %v, want a non-finite data error", v, err)
		}
	}
}

// TestUntrainedModelRejectsPredict: the zero Model, the only one without
// a compiled program, answers "not trained" at every entry point.
func TestUntrainedModelRejectsPredict(t *testing.T) {
	m := &Model{Spec: Spec{FeatureSet: features.Sets()[0]}}
	if _, err := m.predictVector([]float64{1}); err == nil {
		t.Fatal("untrained model predicted")
	}
	sc := features.Scenario{Target: "cg"}
	_, err1 := m.Predict(sc)
	_, err2 := m.PredictScenarios([]features.Scenario{sc})
	err3 := m.PredictIDsInto([]IDScenario{{}}, make([]float64, 1))
	for i, err := range []error{err1, err2, err3} {
		if err == nil || !strings.Contains(err.Error(), "not trained") {
			t.Fatalf("entry point %d on the zero Model: err = %v, want \"not trained\"", i, err)
		}
	}
}

func TestPredictUnknownAppFails(t *testing.T) {
	ds := testDataset(t)
	set, _ := features.SetByName("A")
	m, err := Train(Spec{Technique: Linear, FeatureSet: set}, ds, ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(features.Scenario{Target: "ghost", PState: 0}); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestPredictedSlowdown(t *testing.T) {
	ds := testDataset(t)
	set, _ := features.SetByName("F")
	m, err := Train(Spec{Technique: NeuralNet, FeatureSet: set, Seed: 2}, ds, ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	// Heavy scenario: canneal + 5 cg must predict a slowdown > 1.
	sc := features.Scenario{Target: "canneal", CoApps: []string{"cg", "cg", "cg", "cg", "cg"}, PState: 0}
	sd, err := m.PredictedSlowdown(sc)
	if err != nil {
		t.Fatal(err)
	}
	if sd < 1.02 || sd > 3 {
		t.Fatalf("canneal+5cg predicted slowdown %v", sd)
	}
	// Light scenario: canneal + 1 ep should predict a smaller slowdown.
	light, err := m.PredictedSlowdown(features.Scenario{Target: "canneal", CoApps: []string{"ep"}, PState: 0})
	if err != nil {
		t.Fatal(err)
	}
	if light >= sd {
		t.Fatalf("light scenario slowdown %v ≥ heavy %v", light, sd)
	}
	if _, err := m.PredictedSlowdown(features.Scenario{Target: "canneal", PState: 99}); err == nil {
		t.Fatal("bad P-state accepted")
	}
}

func TestEvaluateProtocol(t *testing.T) {
	ds := testDataset(t)
	set, _ := features.SetByName("C")
	res, err := Evaluate(Spec{Technique: Linear, FeatureSet: set}, ds,
		EvalConfig{Partitions: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerPartition) != 10 {
		t.Fatalf("got %d partitions", len(res.PerPartition))
	}
	if res.TestMPE <= 0 || res.TrainMPE <= 0 {
		t.Fatalf("errors: %+v", res)
	}
	// The paper observes per-partition variation "at most a quarter of a
	// percent"; our CI must likewise be tight.
	if res.TestMPECI > 0.5 {
		t.Fatalf("test MPE CI %v too wide", res.TestMPECI)
	}
	// Train and test errors must be of similar magnitude (no leak, no
	// catastrophic overfit in the linear model).
	if res.TestMPE > 3*res.TrainMPE {
		t.Fatalf("linear model overfits: train %v test %v", res.TrainMPE, res.TestMPE)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	ds := testDataset(t)
	set, _ := features.SetByName("B")
	cfg := EvalConfig{Partitions: 5, Seed: 9}
	a, err := Evaluate(Spec{Technique: Linear, FeatureSet: set}, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(Spec{Technique: Linear, FeatureSet: set}, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TestMPE != b.TestMPE || a.TrainNRMSE != b.TrainNRMSE {
		t.Fatal("evaluation not deterministic")
	}
}

func TestEvaluateErrors(t *testing.T) {
	set, _ := features.SetByName("A")
	tiny := &harness.Dataset{Records: make([]harness.Record, 3)}
	if _, err := Evaluate(Spec{Technique: Linear, FeatureSet: set}, tiny, EvalConfig{Partitions: 2}); err == nil {
		t.Fatal("tiny dataset accepted")
	}
	ds := testDataset(t)
	if _, err := Evaluate(Spec{Technique: Technique(9), FeatureSet: set}, ds, EvalConfig{Partitions: 2}); err == nil {
		t.Fatal("bad technique accepted")
	}
	spec := Spec{Technique: Linear, FeatureSet: set}
	if _, err := Evaluate(spec, ds, EvalConfig{Partitions: -3}); err == nil {
		t.Fatal("negative partition count accepted")
	}
	// With no worker the feeder would block forever: bound the wait.
	done := make(chan error, 1)
	go func() {
		_, err := Evaluate(spec, ds, EvalConfig{Partitions: 2, Workers: -1})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("negative worker count accepted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Evaluate with Workers -1 did not return within 10 s")
	}
}

// TestHeadlineShape verifies the central Section V result on a reduced
// dataset: neural-network accuracy improves as co-runner cache features
// are added, and the full-feature neural model beats every linear model.
func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation is slow")
	}
	ds := testDataset(t)
	cfg := EvalConfig{Partitions: 6, Seed: 11}
	results, err := EvaluateAll(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*EvalResult{}
	for _, r := range results {
		byName[r.Spec.String()] = r
	}
	// NN improves from A to F substantially.
	if byName["neural-net-F"].TestMPE > 0.75*byName["neural-net-A"].TestMPE {
		t.Fatalf("NN A->F improvement too small: %v -> %v",
			byName["neural-net-A"].TestMPE, byName["neural-net-F"].TestMPE)
	}
	// NN-F beats linear-F.
	if byName["neural-net-F"].TestMPE >= byName["linear-F"].TestMPE {
		t.Fatalf("NN-F (%v) not better than linear-F (%v)",
			byName["neural-net-F"].TestMPE, byName["linear-F"].TestMPE)
	}
	// Every model beats a 30% error strawman and is positive.
	for name, r := range byName {
		if r.TestMPE <= 0 || r.TestMPE > 30 {
			t.Fatalf("%s test MPE %v implausible", name, r.TestMPE)
		}
	}
	// Results arrive in AllSpecs order.
	if !strings.HasPrefix(results[0].Spec.String(), "linear-A") {
		t.Fatal("results out of order")
	}
}

func BenchmarkTrainLinearF(b *testing.B) {
	ds := testDataset(b)
	set, _ := features.SetByName("F")
	spec := Spec{Technique: Linear, FeatureSet: set}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(spec, ds, ds.Records); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainNeuralF(b *testing.B) {
	ds := testDataset(b)
	set, _ := features.SetByName("F")
	spec := Spec{Technique: NeuralNet, FeatureSet: set, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(spec, ds, ds.Records); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainNeuralFTableV trains neural-net-F on every record of the
// 6-core Table V sweep: the training the repository benchmark's train_s
// times, where BenchmarkTrainNeuralF uses a four-target plan.
func BenchmarkTrainNeuralFTableV(b *testing.B) {
	ds, err := harness.Collect(harness.DefaultPlan(simproc.XeonE5649(), 1))
	if err != nil {
		b.Fatal(err)
	}
	set, _ := features.SetByName("F")
	spec := Spec{Technique: NeuralNet, FeatureSet: set, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(spec, ds, ds.Records); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	ds := testDataset(b)
	set, _ := features.SetByName("F")
	m, err := Train(Spec{Technique: NeuralNet, FeatureSet: set, Seed: 1}, ds, ds.Records)
	if err != nil {
		b.Fatal(err)
	}
	sc := features.ScenarioFromRecord(ds.Records[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	ds := testDataset(t)
	for _, tech := range []Technique{Linear, NeuralNet} {
		set, _ := features.SetByName("F")
		m, err := Train(Spec{Technique: tech, FeatureSet: set, Seed: 9}, ds, ds.Records)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadModel(&buf)
		if err != nil {
			t.Fatal(err)
		}
		// Identical predictions on every record.
		scs := make([]features.Scenario, 20)
		for i, r := range ds.Records[:len(scs)] {
			scs[i] = features.ScenarioFromRecord(r)
		}
		want, err := m.PredictScenarios(scs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.PredictScenarios(scs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-9*want[i] {
				t.Fatalf("%v: prediction %d differs: %v vs %v", tech, i, want[i], got[i])
			}
		}
		if loaded.Spec.String() != m.Spec.String() {
			t.Fatalf("spec changed: %s vs %s", loaded.Spec, m.Spec)
		}
	}
}

func TestModelSaveLoadWithInteractions(t *testing.T) {
	ds := testDataset(t)
	set, _ := features.SetByName("C")
	aug := features.WithInteractions(set)
	m, err := Train(Spec{Technique: Linear, FeatureSet: aug}, ds, ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Spec.FeatureSet.Width() != aug.Width() {
		t.Fatal("interactions lost in round trip")
	}
}

func TestModelIOErrors(t *testing.T) {
	var buf bytes.Buffer
	untrained := &Model{Spec: Spec{FeatureSet: features.Sets()[0]}}
	if err := untrained.Save(&buf); err == nil {
		t.Fatal("untrained model saved")
	}
	if _, err := LoadModel(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadModel(strings.NewReader(`{"format":99}`)); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := LoadModel(strings.NewReader(`{"format":1,"technique":0,"feature_set":"A","features":[0],"baselines":{"x":{}}}`)); err == nil {
		t.Fatal("linear model without coefficients accepted")
	}
	if _, err := LoadModel(strings.NewReader(`{"format":1,"technique":1,"feature_set":"A","features":[0],"baselines":{"x":{}}}`)); err == nil {
		t.Fatal("neural model without network accepted")
	}
	if _, err := LoadModel(strings.NewReader(`{"format":1,"technique":0,"feature_set":"A","features":[0],"linear":{"Coefficients":[1],"Constant":0}}`)); err == nil {
		t.Fatal("model without baselines accepted")
	}
}
