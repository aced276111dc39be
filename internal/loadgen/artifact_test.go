package loadgen

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func readArtifacts(t *testing.T, path string) []BenchArtifact {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var arts []BenchArtifact
	if err := json.Unmarshal(raw, &arts); err != nil {
		t.Fatalf("trajectory file is not a JSON array: %v\n%s", err, raw)
	}
	return arts
}

func TestMergeArtifactFreshAndReplace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")

	// First write starts the trajectory.
	if _, err := MergeArtifact(path, BenchArtifact{Bench: "ci-soak", Pass: true}); err != nil {
		t.Fatal(err)
	}
	// A second bench appends; names stay sorted.
	if _, err := MergeArtifact(path, BenchArtifact{Bench: "cluster-soak", Pass: true}); err != nil {
		t.Fatal(err)
	}
	arts := readArtifacts(t, path)
	if len(arts) != 2 || arts[0].Bench != "ci-soak" || arts[1].Bench != "cluster-soak" {
		t.Fatalf("unexpected trajectory: %+v", arts)
	}

	// Re-running one bench replaces its entry and preserves the other.
	merged, err := MergeArtifact(path, BenchArtifact{Bench: "ci-soak", Pass: false, Violations: []string{"slow"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 2 {
		t.Fatalf("replace grew the trajectory: %+v", merged)
	}
	arts = readArtifacts(t, path)
	if arts[0].Bench != "ci-soak" || arts[0].Pass || len(arts[0].Violations) != 1 {
		t.Fatalf("ci-soak entry not replaced: %+v", arts[0])
	}
	if arts[1].Bench != "cluster-soak" || !arts[1].Pass {
		t.Fatalf("cluster-soak entry disturbed by replace: %+v", arts[1])
	}
}

func TestMergeArtifactRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	// Anything but a JSON array of artifacts, a bare artifact object
	// included, is left alone.
	for _, garbage := range []string{"not json", `{"bench":"ci-soak","pass":true}`} {
		if err := os.WriteFile(path, []byte(garbage), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := MergeArtifact(path, BenchArtifact{Bench: "x"}); err == nil {
			t.Fatalf("MergeArtifact silently overwrote an unparseable trajectory file %q", garbage)
		}
	}
}

func TestMergeRawArtifactPreservesForeignSchemas(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_train.json")
	// An entry with fields no loadgen schema knows about.
	foreign := `[{"bench":"train-scg-batched","go_version":"go1.24.0","cases":[{"name":"batched/rows64","ns_per_op":1575420}]}]`
	if err := os.WriteFile(path, []byte(foreign), 0o644); err != nil {
		t.Fatal(err)
	}

	merged, err := MergeRawArtifact(path, json.RawMessage(`{"bench":"predict-path","cases":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 2 {
		t.Fatalf("got %d entries, want 2", len(merged))
	}
	keys := make([]string, len(merged))
	for i, e := range merged {
		if keys[i], err = artifactKey(e); err != nil {
			t.Fatal(err)
		}
	}
	if keys[0] != "predict-path" || keys[1] != "train-scg-batched" {
		t.Fatalf("wrong key order: %v", keys)
	}
	var train struct {
		GoVersion string `json:"go_version"`
		Cases     []struct {
			NsPerOp int64 `json:"ns_per_op"`
		} `json:"cases"`
	}
	if err := json.Unmarshal(merged[1], &train); err != nil {
		t.Fatal(err)
	}
	if train.GoVersion != "go1.24.0" || len(train.Cases) != 1 || train.Cases[0].NsPerOp != 1575420 {
		t.Fatalf("entry's foreign fields were not preserved: %s", merged[1])
	}
}

func TestMergeRawArtifactRejectsKeylessEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if _, err := MergeRawArtifact(path, json.RawMessage(`{"pass":true}`)); err == nil {
		t.Fatal("artifact without a bench name accepted")
	}
	if err := os.WriteFile(path, []byte(`[{"pass":true}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeRawArtifact(path, json.RawMessage(`{"bench":"x"}`)); err == nil {
		t.Fatal("trajectory with a keyless entry silently rewritten")
	}
}
