package core

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"colocmodel/internal/features"
)

func trainedLinearA(t *testing.T) *Model {
	t.Helper()
	ds := testDataset(t)
	set, _ := features.SetByName("A")
	m, err := Train(Spec{Technique: Linear, FeatureSet: set}, ds, ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelIntrospection(t *testing.T) {
	ds := testDataset(t)
	m := trainedLinearA(t)
	if m.Machine() != ds.Machine {
		t.Fatalf("Machine() = %q, want %q", m.Machine(), ds.Machine)
	}
	apps := m.Apps()
	if len(apps) != len(ds.Baselines) {
		t.Fatalf("Apps() has %d entries, want %d", len(apps), len(ds.Baselines))
	}
	if !sort.StringsAreSorted(apps) {
		t.Fatalf("Apps() not sorted: %v", apps)
	}
	for _, a := range apps {
		if !m.HasApp(a) {
			t.Fatalf("HasApp(%q) = false for a listed app", a)
		}
	}
	if m.HasApp("ghost") {
		t.Fatal("HasApp accepted an unknown app")
	}
	if m.PStates() != len(ds.PStateFreqs) {
		t.Fatalf("PStates() = %d, want %d", m.PStates(), len(ds.PStateFreqs))
	}
	sec, err := m.BaselineSeconds(apps[0], 0)
	if err != nil || sec <= 0 {
		t.Fatalf("BaselineSeconds = %v, %v", sec, err)
	}
	if _, err := m.BaselineSeconds(apps[0], 99); err == nil {
		t.Fatal("out-of-range P-state accepted")
	}
	if _, err := m.BaselineSeconds("ghost", 0); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestModelIntrospectionNilBaselines(t *testing.T) {
	m := &Model{}
	if m.Machine() != "" || m.Apps() != nil || m.HasApp("cg") || m.PStates() != 0 {
		t.Fatal("nil-baseline model leaked introspection data")
	}
}

// TestLoadModelHostileInput exercises the untrusted-artefact boundary:
// every corruption must produce a descriptive error, never a model.
func TestLoadModelHostileInput(t *testing.T) {
	m := trainedLinearA(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	t.Run("truncated", func(t *testing.T) {
		for _, frac := range []float64{0.1, 0.5, 0.9} {
			cut := good[:int(frac*float64(len(good)))]
			if _, err := LoadModel(strings.NewReader(cut)); err == nil {
				t.Fatalf("truncated artefact (%.0f%%) accepted", 100*frac)
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := LoadModel(strings.NewReader("")); err == nil {
			t.Fatal("empty artefact accepted")
		}
	})
	t.Run("future-format", func(t *testing.T) {
		bad := strings.Replace(good, `"format":1`, `"format":2`, 1)
		_, err := LoadModel(strings.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "format") {
			t.Fatalf("future format: err = %v", err)
		}
	})
	t.Run("empty-feature-set", func(t *testing.T) {
		bad := strings.Replace(good, `"features":[0]`, `"features":[]`, 1)
		if _, err := LoadModel(strings.NewReader(bad)); err == nil {
			t.Fatal("empty feature set accepted")
		}
	})
	t.Run("unknown-feature-index", func(t *testing.T) {
		bad := strings.Replace(good, `"features":[0]`, `"features":[99]`, 1)
		_, err := LoadModel(strings.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "feature") {
			t.Fatalf("unknown feature index: err = %v", err)
		}
	})
	t.Run("negative-feature-index", func(t *testing.T) {
		bad := strings.Replace(good, `"features":[0]`, `"features":[-1]`, 1)
		if _, err := LoadModel(strings.NewReader(bad)); err == nil {
			t.Fatal("negative feature index accepted")
		}
	})
	t.Run("bad-interaction", func(t *testing.T) {
		bad := strings.Replace(good, `"features":[0]`, `"features":[0],"interactions":[[0,99]]`, 1)
		if _, err := LoadModel(strings.NewReader(bad)); err == nil {
			t.Fatal("out-of-range interaction feature accepted")
		}
	})
	t.Run("unknown-technique", func(t *testing.T) {
		bad := strings.Replace(good, `"technique":0`, `"technique":7`, 1)
		if _, err := LoadModel(strings.NewReader(bad)); err == nil {
			t.Fatal("unknown technique accepted")
		}
	})

	// Neural artefacts: the declared network shape must match the
	// parameters it carries, checked before anything is allocated for
	// it, and the scalers must have positive deviations.
	neural := func(inputs, hidden, xStd, yStd string) string {
		return fmt.Sprintf(neuralArtefact, inputs, hidden, xStd, yStd)
	}
	t.Run("neural-valid", func(t *testing.T) {
		m, err := LoadModel(strings.NewReader(neural("1", "2", "50", "30")))
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.Predict(features.Scenario{Target: "cg", CoApps: []string{"ep"}})
		if err != nil || p <= 0 {
			t.Fatalf("valid neural artefact predicts %v, %v", p, err)
		}
	})
	for name, c := range map[string]struct{ blob, why string }{
		// A parameter count that overflows: at 2^62 hidden nodes the
		// allocation length is out of range.
		"net-config-overflow": {neural("1", "4611686018427387904", "50", "30"), "parameters"},
		// A count that fits an int but would need about 51 GB.
		"net-config-huge-hidden": {neural("1", "2147483648", "50", "30"), "params"},
		"net-config-huge-inputs": {neural("70368744177664", "2", "50", "30"), "params"},
		"net-config-short":       {neural("1", "3", "50", "30"), "params"},
		"negative-output-std":    {neural("1", "2", "50", "-3"), "standard deviation"},
		"zero-output-std":        {neural("1", "2", "50", "0"), "standard deviation"},
		"negative-input-std":     {neural("1", "2", "-50", "30"), "standard deviation"},
		// An input scaler fitted on another width: the compiler refuses
		// it, so the load does.
		"scaler-std-short": {neural("1", "2", "", "30"), "input scaler has 1 means and 0 deviations"},
		"scaler-std-long":  {neural("1", "2", "50,50", "30"), "input scaler has 1 means and 2 deviations"},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := LoadModel(strings.NewReader(c.blob))
			if err == nil || !strings.Contains(err.Error(), c.why) {
				t.Fatalf("hostile neural artefact: err = %v, want one about %s", err, c.why)
			}
		})
	}
}

// neuralArtefact is a hand-written neural-net-A artefact with one input
// and one hidden layer of two nodes, so 7 parameters. The verbs fill the
// declared inputs and hidden width, the input scaler's Std and the output
// scaler's Std.
const neuralArtefact = `{"format":1,"technique":1,"feature_set":"A","features":[0],"seed":1,` +
	`"net_config":{"Inputs":%s,"Hidden":[%s],"Activation":0,"Seed":1},` +
	`"net_params":[0.5,-0.25,0.1,0.05,0.8,-0.6,0.2],` +
	`"x_scaler":{"Mean":[300],"Std":[%s]},"y_scaler":{"Mean":300,"Std":%s},` +
	`"machine":"m","pstate_freqs":[2.5],"baselines":{` +
	`"cg":{"App":"cg","SecondsByPState":[300],"MemIntensity":0.05,"CMPerCA":0.7,"CAPerIns":0.06},` +
	`"ep":{"App":"ep","SecondsByPState":[380],"MemIntensity":1e-5,"CMPerCA":0.003,"CAPerIns":0.002}}}`

// TestLoadModelRefusesOtherNetworks: an artefact whose network is not one
// tanh hidden layer is refused with an error naming what it declares.
// Both the two-layer artefact (its parameter count matches its shape) and
// the non-tanh ones would otherwise load and predict as something they
// are not.
func TestLoadModelRefusesOtherNetworks(t *testing.T) {
	valid := fmt.Sprintf(neuralArtefact, "1", "2", "50", "30")
	for _, c := range []struct {
		name string
		edit []string // old, new pairs for strings.NewReplacer
		want string
	}{
		{"two-layers", []string{`"Hidden":[2]`, `"Hidden":[2,1]`, `0.2]`, `0.2,0.4,-0.1]`},
			"network has 2 hidden layers; this build runs exactly one"},
		{"no-layer", []string{`"Hidden":[2]`, `"Hidden":[]`}, "network has 0 hidden layers"},
		{"sigmoid", []string{`"Activation":0`, `"Activation":1`}, "network activation 1 is not tanh"},
		{"relu", []string{`"Activation":0`, `"Activation":2`}, "network activation 2 is not tanh"},
	} {
		t.Run(c.name, func(t *testing.T) {
			blob := strings.NewReplacer(c.edit...).Replace(valid)
			if blob == valid {
				t.Fatal("the edit left the artefact unchanged")
			}
			m, err := LoadModel(strings.NewReader(blob))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("model %v, err = %v; want an error containing %q", m, err, c.want)
			}
		})
	}
}

func TestLoadModelInconsistentBaselines(t *testing.T) {
	base := `{"format":1,"technique":0,"feature_set":"A","features":[0],` +
		`"linear":{"Coefficients":[1],"Constant":0},` +
		`"machine":"m","pstate_freqs":[2.5,2.0],%s}`
	cases := map[string]string{
		"missing pstates":  `"baselines":{"x":{"App":"x","SecondsByPState":[10],"MemIntensity":1e-3,"CMPerCA":0.5,"CAPerIns":0.01}}`,
		"negative seconds": `"baselines":{"x":{"App":"x","SecondsByPState":[10,-1],"MemIntensity":1e-3,"CMPerCA":0.5,"CAPerIns":0.01}}`,
		"zero seconds":     `"baselines":{"x":{"App":"x","SecondsByPState":[0,10],"MemIntensity":1e-3,"CMPerCA":0.5,"CAPerIns":0.01}}`,
	}
	for name, blob := range cases {
		if _, err := LoadModel(strings.NewReader(fmt.Sprintf(base, blob))); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	// The same shape with consistent baselines must load.
	ok := `"baselines":{"x":{"App":"x","SecondsByPState":[10,12],"MemIntensity":1e-3,"CMPerCA":0.5,"CAPerIns":0.01}}`
	if _, err := LoadModel(strings.NewReader(fmt.Sprintf(base, ok))); err != nil {
		t.Fatalf("consistent artefact rejected: %v", err)
	}
}

func TestLoadModelNoPStateTable(t *testing.T) {
	blob := `{"format":1,"technique":0,"feature_set":"A","features":[0],` +
		`"linear":{"Coefficients":[1],"Constant":0},"machine":"m","pstate_freqs":[],` +
		`"baselines":{"x":{"App":"x","SecondsByPState":[],"MemIntensity":1e-3,"CMPerCA":0.5,"CAPerIns":0.01}}}`
	if _, err := LoadModel(strings.NewReader(blob)); err == nil {
		t.Fatal("artefact without a P-state table accepted")
	}
}
