package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOut runs the command with the test's usual partitions, seed and
// noise, and returns what it printed.
func runOut(t *testing.T, ids, svgDir string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(&out, options{run: ids, partitions: 3, seed: 1, noise: 0.01, svgDir: svgDir})
	return out.String(), err
}

// The static tables need no data collection, so they exercise run's
// dispatch cheaply.
func TestRunStaticTables(t *testing.T) {
	out, err := runOut(t, "table1,table2,table4,table5", "")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "collecting") {
		t.Fatalf("static tables collected a dataset:\n%s", out)
	}
	for _, title := range []string{"Table I:", "Table II:", "Table IV:", "Table V:"} {
		if !strings.Contains(out, "=== "+title) {
			t.Errorf("output lacks %q", title)
		}
	}
}

// Selected experiments print in registry order, each once, whatever the
// order and repetition of the -run list.
func TestRunRegistryOrderOnce(t *testing.T) {
	out, err := runOut(t, "table5,table2,table5", "")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out, "=== Table V:"); n != 1 {
		t.Fatalf("table5 printed %d times", n)
	}
	if strings.Index(out, "=== Table II:") > strings.Index(out, "=== Table V:") {
		t.Fatalf("table5 printed before table2:\n%s", out)
	}
	if strings.Contains(out, "=== Table I:") {
		t.Fatal("an unselected table printed")
	}
}

// An unknown id fails before anything is collected or printed, and the
// error names every valid id.
func TestRunUnknownID(t *testing.T) {
	for _, list := range []string{"table7", "figure9", "table1,figure9", "pca,"} {
		out, err := runOut(t, list, "")
		if err == nil {
			t.Fatalf("-run %q accepted", list)
		}
		if out != "" {
			t.Fatalf("-run %q printed before failing:\n%s", list, out)
		}
		for _, id := range ids() {
			if !strings.Contains(err.Error(), id) {
				t.Errorf("-run %q: error %q does not list %s", list, err, id)
			}
		}
	}
}

func TestRunSingleFigureWithSVG(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration is slow")
	}
	dir := t.TempDir()
	if _, err := runOut(t, "figure5a", dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "figure5a.svg")); err != nil {
		t.Fatalf("SVG not written: %v", err)
	}
}

func TestWriteSVGErrors(t *testing.T) {
	// Writing into a path that is a file must fail.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := writeSVG(&out, filepath.Join(blocker, "sub"), "figure1", "<svg/>"); err == nil {
		t.Fatal("writing under a file accepted")
	}
}
