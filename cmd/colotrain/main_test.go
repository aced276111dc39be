package main

import (
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
	if _, err := obtainDataset("pentium", "", 1, 0.01); err == nil {
		t.Fatal("bad machine accepted")
	}
	if _, err := obtainDataset("6core", "/does/not/exist.csv", 1, 0.01); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestRunRejectsBadCounts: a partition count below one where models are
// evaluated, a negative -n, and -loadmodel without -predict are refused
// before any dataset is read or model loaded, with an error naming the
// flag.
func TestRunRejectsBadCounts(t *testing.T) {
	const missing = "/does/not/exist"
	for _, c := range []struct {
		name               string
		partitions, n      int
		predict, loadModel string
		want               string
	}{
		{name: "negative partitions", partitions: -3, want: "-partitions -3"},
		{name: "zero partitions", partitions: 0, want: "-partitions 0"},
		{name: "negative n", partitions: 1, n: -3, predict: "canneal", want: "-n -3"},
		{name: "negative n, loaded model", partitions: 1, n: -3, predict: "canneal", loadModel: missing, want: "-n -3"},
		{name: "loaded model without -predict", partitions: 1, loadModel: missing, want: "-loadmodel " + missing + " needs -predict"},
	} {
		err := run("6core", missing+".csv", "", "linear-A", c.partitions, 1, 0.01, c.predict, "cg", c.n, 0, "", c.loadModel)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

func TestEndToEndCollectSaveLoadEvaluate(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign collection is slow")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "ds.csv")
	// Collect the 6-core campaign, save it, evaluate one cheap model.
	if err := run("6core", "", out, "linear-A", 3, 1, 0.01, "", "", 0, 0, "", ""); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("dataset not written: %v", err)
	}
	// Reload from CSV and run a prediction.
	if err := run("", out, "", "", 0, 1, 0, "canneal", "cg", 2, 0, "", ""); err != nil {
		t.Fatal(err)
	}
	// Save a model from the CSV, then predict with the loaded model.
	modelPath := filepath.Join(dir, "model.json")
	if err := run("", out, "", "", 0, 1, 0, "", "", 0, 0, modelPath, ""); err != nil {
		t.Fatal(err)
	}
	if err := run("", "", "", "", 0, 1, 0, "canneal", "cg", 3, 0, "", modelPath); err != nil {
		t.Fatal(err)
	}
}
