package core

import (
	"bytes"
	"math"
	"testing"

	"colocmodel/internal/features"
)

// FuzzLoadModel drives the artefact decoder with arbitrary bytes.
// Artefacts cross an untrusted boundary — a serving tier loads
// whatever file it is pointed at — so the decoder must never panic,
// and any artefact it does accept must be fully usable: it saves,
// reloads to an equivalent model, and predicts finite values.
//
// The committed corpus under testdata/fuzz/FuzzLoadModel holds a valid
// linear and a valid neural artefact plus the interesting mutations
// (truncation, bad feature index, non-finite coefficient, wrong format
// version, network shapes that overflow or outsize their parameters, a
// negative output-scaler deviation) and runs as a normal test. CI also
// runs `go test -run '^$' -fuzz '^FuzzLoadModel$' -fuzztime 20s
// ./internal/core/` to explore from there.
func FuzzLoadModel(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{}"))
	f.Add([]byte(`{"format":1}`))
	f.Add([]byte(`{"format":2,"technique":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted artefacts must round-trip...
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("accepted artefact cannot be re-saved: %v", err)
		}
		m2, err := LoadModel(&buf)
		if err != nil {
			t.Fatalf("re-saved artefact rejected: %v", err)
		}
		// ...and predict deterministically finite values for a scenario
		// built from their own baseline store.
		apps := m.Apps()
		if len(apps) == 0 {
			t.Fatal("accepted artefact has no apps")
		}
		sc := features.Scenario{Target: apps[0], CoApps: []string{apps[len(apps)-1]}, PState: 0}
		p1, err1 := m.Predict(sc)
		p2, err2 := m2.Predict(sc)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("round-trip prediction errors diverge: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if math.IsNaN(p1) || math.IsInf(p1, 0) {
			t.Fatalf("accepted artefact predicts non-finite %v", p1)
		}
		if p1 != p2 {
			t.Fatalf("round-trip prediction diverges: %v vs %v", p1, p2)
		}
	})
}
