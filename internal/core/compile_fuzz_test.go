package core_test

import (
	"bytes"
	"testing"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/testeq"
)

// FuzzCompileModel drives hostile and mutated artefacts through the full
// load→compile→predict chain. The contract under fuzz: LoadModel either
// rejects the bytes with an error, or yields a compiled model that never
// panics and predicts bit-identically to the interpreted path through
// every entry point (testeq.CheckModel) on every scenario — including
// invalid ones, where the two paths must agree on rejecting. An artefact
// that loads but does not compile cannot exist: the loader returns the
// compiler's error (the committed scaler-width-mismatch artefact is one
// such refusal).
func FuzzCompileModel(f *testing.F) {
	// Seed with real artefacts from the property generator (one per
	// technique) on top of the committed corpus, so mutation starts from
	// deep inside the valid format.
	gen := testeq.New(0xf022, testeq.GenConfig{MaxHidden: 8})
	for i := 0; i < 6; i++ {
		f.Add(gen.Artifact())
	}
	f.Add([]byte("{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := core.LoadModel(bytes.NewReader(data))
		if err != nil {
			return // rejected: the loader did its job
		}
		apps := m.Apps()
		if len(apps) == 0 {
			t.Fatal("loaded model has no apps")
		}
		scs := []features.Scenario{
			{Target: apps[0], PState: 0},
			{Target: apps[len(apps)-1], CoApps: []string{apps[0], apps[0]}, PState: m.PStates() - 1},
			{Target: apps[0], CoApps: apps, PState: 0},
			// Hostile: both paths must agree on rejection too.
			{Target: "fuzz-no-such-app", PState: 0},
			{Target: apps[0], CoApps: []string{"fuzz-no-such-app"}, PState: 0},
			{Target: apps[0], PState: m.PStates() + 1},
		}
		testeq.CheckModel(t, m, scs)
	})
}
