package core

import (
	"testing"

	"colocmodel/internal/features"
	"colocmodel/internal/mlp"
)

// A reused TrainScratch must produce the same models as scratch-free
// Train, bit-for-bit, even after the scratch has been warmed by fits of
// other shapes and techniques.
func TestTrainWithScratchMatchesTrain(t *testing.T) {
	ds := testDataset(t)
	setC, _ := features.SetByName("C")
	setF, _ := features.SetByName("F")
	scratch := NewTrainScratch()
	specs := []Spec{
		{Technique: Linear, FeatureSet: setC},
		{Technique: NeuralNet, FeatureSet: setF, Seed: 3, SCG: mlp.SCGConfig{MaxIter: 40}},
		{Technique: Linear, FeatureSet: setF},
		{Technique: NeuralNet, FeatureSet: setC, Seed: 9, SCG: mlp.SCGConfig{MaxIter: 40}},
	}
	for _, spec := range specs {
		fresh, err := Train(spec, ds, ds.Records)
		if err != nil {
			t.Fatalf("%s: Train: %v", spec, err)
		}
		reused, err := TrainWithScratch(spec, ds, ds.Records, scratch)
		if err != nil {
			t.Fatalf("%s: TrainWithScratch: %v", spec, err)
		}
		for _, r := range ds.Records[:20] {
			sc := features.ScenarioFromRecord(r)
			a, err := fresh.Predict(sc)
			if err != nil {
				t.Fatal(err)
			}
			b, err := reused.Predict(sc)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("%s: scratch-trained model diverges: %v != %v", spec, b, a)
			}
		}
	}
}

// Batched PredictScenarios must agree bit-for-bit with scenario-at-a-time
// Predict for both techniques.
func TestBatchedPredictionMatchesPredict(t *testing.T) {
	ds := testDataset(t)
	set, _ := features.SetByName("F")
	for _, spec := range []Spec{
		{Technique: Linear, FeatureSet: set},
		{Technique: NeuralNet, FeatureSet: set, Seed: 3, SCG: mlp.SCGConfig{MaxIter: 60}},
	} {
		m, err := Train(spec, ds, ds.Records)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		recs := ds.Records[:37]
		scs := make([]features.Scenario, len(recs))
		for i, r := range recs {
			scs[i] = features.ScenarioFromRecord(r)
		}
		byScenario, err := m.PredictScenarios(scs)
		if err != nil {
			t.Fatal(err)
		}
		for i, sc := range scs {
			want, err := m.Predict(sc)
			if err != nil {
				t.Fatal(err)
			}
			if byScenario[i] != want {
				t.Fatalf("%s: PredictScenarios[%d] = %v, Predict = %v", spec, i, byScenario[i], want)
			}
		}
	}
}

// An empty batch is a no-op, not an error.
func TestBatchedPredictionEmpty(t *testing.T) {
	ds := testDataset(t)
	set, _ := features.SetByName("C")
	m, err := Train(Spec{Technique: Linear, FeatureSet: set}, ds, ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := m.PredictScenarios(nil); err != nil || len(out) != 0 {
		t.Fatalf("PredictScenarios(nil) = %v, %v", out, err)
	}
}
