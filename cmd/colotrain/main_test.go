package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelectSpecs(t *testing.T) {
	all, err := selectSpecs("all", 1)
	if err != nil || len(all) != 12 {
		t.Fatalf("all: %d specs, %v", len(all), err)
	}
	two, err := selectSpecs("linear-A, neural-net-F", 1)
	if err != nil || len(two) != 2 {
		t.Fatalf("pair: %d specs, %v", len(two), err)
	}
	if two[0].String() != "linear-A" || two[1].String() != "neural-net-F" {
		t.Fatalf("specs = %v, %v", two[0], two[1])
	}
	if _, err := selectSpecs("linear-Z", 1); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestObtainDatasetErrors(t *testing.T) {
	if _, err := obtainDataset(io.Discard, "pentium", "", 1, 0.01); err == nil {
		t.Fatal("bad machine accepted")
	}
	if _, err := obtainDataset(io.Discard, "6core", "/does/not/exist.csv", 1, 0.01); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestObtainDatasetMachineAliases: -machine takes the names colosim and
// the serving tier take, the model numbers included.
func TestObtainDatasetMachineAliases(t *testing.T) {
	for name, want := range map[string]string{"e5649": "Xeon E5649", "E5-2697v2": "Xeon E5-2697v2"} {
		ds, err := obtainDataset(io.Discard, name, "", 1, 0.01)
		if err != nil {
			t.Fatalf("-machine %s: %v", name, err)
		}
		if ds.Machine != want {
			t.Fatalf("-machine %s collected on %q, want %q", name, ds.Machine, want)
		}
	}
}

// TestRunRejectsBadCounts: a partition count below one where models are
// evaluated, a negative -n, -loadmodel without -predict, and -loadmodel
// with -savemodel or -out (which a loaded model never writes) are
// refused before any dataset is read or model loaded, with an error
// naming the flags.
func TestRunRejectsBadCounts(t *testing.T) {
	const missing = "/does/not/exist"
	dir := t.TempDir()
	for _, c := range []struct {
		name                               string
		partitions, n                      int
		predict, loadModel, saveModel, out string
		want                               string
	}{
		{name: "negative partitions", partitions: -3, want: "-partitions -3"},
		{name: "zero partitions", partitions: 0, want: "-partitions 0"},
		{name: "negative n", partitions: 1, n: -3, predict: "canneal", want: "-n -3"},
		{name: "negative n, loaded model", partitions: 1, n: -3, predict: "canneal", loadModel: missing, want: "-n -3"},
		{name: "loaded model without -predict", partitions: 1, loadModel: missing, want: "-loadmodel " + missing + " needs -predict"},
		{name: "loaded model with -savemodel", partitions: 1, predict: "canneal", loadModel: missing, saveModel: filepath.Join(dir, "m.json"),
			want: "-loadmodel " + missing + " cannot be combined with -savemodel or -out"},
		{name: "loaded model with -out", partitions: 1, predict: "canneal", loadModel: missing, out: filepath.Join(dir, "ds.csv"),
			want: "-loadmodel " + missing + " cannot be combined with -savemodel or -out"},
	} {
		err := run(io.Discard, options{machine: "6core", in: missing + ".csv", models: "linear-A", partitions: c.partitions,
			seed: 1, noise: 0.01, predict: c.predict, coapp: "cg", n: c.n, loadModel: c.loadModel, saveModel: c.saveModel, out: c.out})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("a refused run wrote %d file(s)", len(files))
	}
}

// TestOnePartitionPrintsNoCI: one evaluation partition has no spread, so
// the test-MPE confidence column reads n/a, never ±NaN%.
func TestOnePartitionPrintsNoCI(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, options{machine: "6core", models: "linear-A", partitions: 1, seed: 1, noise: 0.01}); err != nil {
		t.Fatal(err)
	}
	var row string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "linear-A") {
			row = l
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(row), "n/a") || strings.Contains(out.String(), "NaN") {
		t.Fatalf("linear-A row %q, want its CI column n/a:\n%s", row, out.String())
	}
}

// TestSaveAndLoadPredictAlike: a run that saves neural-net-F and predicts
// with it prints the same prediction as a later run that loads the saved
// artefact and predicts the same scenario.
func TestSaveAndLoadPredictAlike(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	predict := options{predict: "canneal", coapp: "cg", n: 3}
	var saved, loaded bytes.Buffer
	o := predict
	o.machine, o.seed, o.noise, o.saveModel = "6core", 42, 0.01, path
	if err := run(&saved, o); err != nil {
		t.Fatal(err)
	}
	o = predict
	o.loadModel = path
	if err := run(&loaded, o); err != nil {
		t.Fatal(err)
	}
	lines := func(out string) []string {
		var ls []string
		for _, l := range strings.Split(out, "\n") {
			if strings.Contains(l, "predicted") {
				ls = append(ls, l)
			}
		}
		return ls
	}
	s, l := lines(saved.String()), lines(loaded.String())
	if len(s) != 2 || strings.Join(s, "\n") != strings.Join(l, "\n") {
		t.Fatalf("saving run printed %q, loading run %q", s, l)
	}
}

func TestEndToEndCollectSaveLoadEvaluate(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign collection is slow")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "ds.csv")
	// Collect the 6-core campaign, save it, evaluate one cheap model.
	if err := run(io.Discard, options{machine: "6core", out: out, models: "linear-A", partitions: 3, seed: 1, noise: 0.01}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("dataset not written: %v", err)
	}
	// Reload from CSV and run a prediction.
	if err := run(io.Discard, options{in: out, seed: 1, predict: "canneal", coapp: "cg", n: 2}); err != nil {
		t.Fatal(err)
	}
	// Save a model from the CSV, then predict with the loaded model.
	modelPath := filepath.Join(dir, "model.json")
	if err := run(io.Discard, options{in: out, seed: 1, saveModel: modelPath}); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, options{seed: 1, predict: "canneal", coapp: "cg", n: 3, loadModel: modelPath}); err != nil {
		t.Fatal(err)
	}
}
