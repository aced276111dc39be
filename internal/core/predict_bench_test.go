package core_test

// BenchmarkPredictPath measures the model's pooled entry points against
// the interpreted reference on one production-shaped model (8 base
// features, one hidden layer of 20 tanh nodes — the neural-net-F shape):
// Predict, PredictScenarios and PredictIDsInto batched at 64, 512 and
// 4096 rows, and Predict from parallel goroutines.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/xrand"
)

// benchArtifact builds a deterministic neural-net artefact with the
// production serving shape, without the cost of training: 6 apps,
// 6 P-states, the 8 Table I features, one hidden layer of 20 nodes.
func benchArtifact() []byte {
	src := xrand.New(99)
	const apps, pstates, width, hidden = 6, 6, 8, 20
	baselines := make(map[string]any, apps)
	for a := 0; a < apps; a++ {
		secs := make([]float64, pstates)
		for p := range secs {
			secs[p] = 100 + 20*float64(p) + 50*src.Float64()
		}
		baselines[fmt.Sprintf("app%d", a)] = map[string]any{
			"App": fmt.Sprintf("app%d", a), "SecondsByPState": secs,
			"MemIntensity": 0.001 * src.Float64(), "CMPerCA": src.Float64(), "CAPerIns": 0.1 * src.Float64(),
		}
	}
	freqs := make([]float64, pstates)
	for p := range freqs {
		freqs[p] = 2.5 - 0.15*float64(p)
	}
	params := make([]float64, width*hidden+hidden+hidden+1)
	for i := range params {
		params[i] = src.Normal(0, 0.5)
	}
	mean := make([]float64, width)
	std := make([]float64, width)
	for j := range mean {
		mean[j] = 10 * src.Float64()
		std[j] = 0.5 + 4.5*src.Float64()
	}
	dto := map[string]any{
		"format": 1, "technique": 1, "feature_set": "bench",
		"features": []int{0, 1, 2, 3, 4, 5, 6, 7}, "seed": 99,
		"machine": "bench-machine", "pstate_freqs": freqs, "llc_bytes": 12e6,
		"baselines":  baselines,
		"net_config": map[string]any{"Inputs": width, "Hidden": []int{hidden}, "Activation": 0, "Seed": 1},
		"net_params": params,
		"x_scaler":   map[string]any{"Mean": mean, "Std": std},
		"y_scaler":   map[string]any{"Mean": 150.0, "Std": 40.0},
	}
	raw, err := json.Marshal(dto)
	if err != nil {
		panic(err)
	}
	return raw
}

// benchScenarios draws a deterministic scenario pool over the model's
// apps and P-states.
func benchScenarios(m *core.Model, n int) []features.Scenario {
	src := xrand.New(7)
	apps := m.Apps()
	out := make([]features.Scenario, n)
	for i := range out {
		co := make([]string, src.Intn(6))
		for j := range co {
			co[j] = apps[src.Intn(len(apps))]
		}
		out[i] = features.Scenario{
			Target: apps[src.Intn(len(apps))],
			CoApps: co,
			PState: src.Intn(m.PStates()),
		}
	}
	return out
}

func BenchmarkPredictPath(b *testing.B) {
	m, err := core.LoadModel(bytes.NewReader(benchArtifact()))
	if err != nil {
		b.Fatal(err)
	}
	pool := benchScenarios(m, 4096)
	sc := pool[0]

	b.Run("scalar/interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.PredictInterpreted(sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalar/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Predict(sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{64, 512, 4096} {
		scs := pool[:n]
		b.Run(fmt.Sprintf("batch%d/interpreted", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.PredictScenariosInterpreted(scs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("batch%d/compiled", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.PredictScenarios(scs); err != nil {
					b.Fatal(err)
				}
			}
		})
		rows := idRows(b, m, scs)
		b.Run(fmt.Sprintf("batch%d/ids", n), func(b *testing.B) {
			out := make([]float64, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := m.PredictIDsInto(rows, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("parallel/compiled", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := m.Predict(pool[i%len(pool)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
}
