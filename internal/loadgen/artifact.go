package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// MergeArtifact folds one benchmark artifact into the trajectory file
// at path: the file holds a JSON array of artifacts keyed by bench
// name; an entry with the same name is replaced in place, every other
// entry is preserved, and the array stays sorted by name so re-running
// one benchmark produces a minimal diff. The merged set is written back
// and returned.
func MergeArtifact(path string, art BenchArtifact) ([]BenchArtifact, error) {
	raw, err := json.Marshal(art)
	if err != nil {
		return nil, err
	}
	merged, err := MergeRawArtifact(path, raw)
	if err != nil {
		return nil, err
	}
	arts := make([]BenchArtifact, len(merged))
	for i, entry := range merged {
		if err := json.Unmarshal(entry, &arts[i]); err != nil {
			return nil, fmt.Errorf("loadgen: parsing %s: %w", path, err)
		}
	}
	return arts, nil
}

// MergeRawArtifact is the schema-free core of the trajectory format:
// it folds one pre-encoded artifact object into the file at path,
// keyed by the object's "bench" field. Entries with other schemas —
// different tools share one trajectory file — pass through
// byte-for-byte. The merged, name-sorted set is written back and
// returned.
func MergeRawArtifact(path string, art json.RawMessage) ([]json.RawMessage, error) {
	key, err := artifactKey(art)
	if err != nil {
		return nil, err
	}
	var arts []json.RawMessage
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if len(bytes.TrimSpace(raw)) > 0 {
			if err := json.Unmarshal(raw, &arts); err != nil {
				return nil, fmt.Errorf("loadgen: parsing %s: %w", path, err)
			}
		}
	case os.IsNotExist(err):
		// First write: start a fresh trajectory.
	default:
		return nil, err
	}
	type keyed struct {
		key string
		art json.RawMessage
	}
	entries := make([]keyed, 0, len(arts)+1)
	replaced := false
	for i, entry := range arts {
		k, err := artifactKey(entry)
		if err != nil {
			return nil, fmt.Errorf("loadgen: %s entry %d: %w", path, i, err)
		}
		if k == key {
			entry = art
			replaced = true
		}
		entries = append(entries, keyed{key: k, art: entry})
	}
	if !replaced {
		entries = append(entries, keyed{key: key, art: art})
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	arts = arts[:0]
	for _, e := range entries {
		arts = append(arts, e.art)
	}
	out, err := json.MarshalIndent(arts, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return nil, err
	}
	return arts, nil
}

// artifactKey extracts the bench name of one artifact object.
func artifactKey(raw json.RawMessage) (string, error) {
	var probe struct {
		Bench string `json:"bench"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return "", fmt.Errorf("loadgen: artifact is not a JSON object: %w", err)
	}
	if probe.Bench == "" {
		return "", fmt.Errorf("loadgen: artifact has no bench name")
	}
	return probe.Bench, nil
}
