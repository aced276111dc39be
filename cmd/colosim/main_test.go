package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

func TestRunTimeline(t *testing.T) {
	if err := run("6core", "canneal", "cg", 2, 0, false, true, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunBaselineAndColocation(t *testing.T) {
	if err := run("6core", "canneal", "cg", 0, 0, false, false, false); err != nil {
		t.Fatal(err)
	}
	if err := run("6core", "canneal", "cg", 2, 1, false, false, false); err != nil {
		t.Fatal(err)
	}
	if err := run("6core", "canneal", "cg", 0, 0, true, false, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("pentium", "canneal", "cg", 1, 0, false, false, false); err == nil {
		t.Fatal("bad machine accepted")
	}
	if err := run("6core", "ghost", "cg", 1, 0, false, false, false); err == nil {
		t.Fatal("bad target accepted")
	}
	if err := run("6core", "canneal", "ghost", 1, 0, false, false, false); err == nil {
		t.Fatal("bad co-app accepted")
	}
	if err := run("6core", "canneal", "cg", 9, 0, false, false, false); err == nil {
		t.Fatal("too many co-runners accepted")
	}
	if err := run("6core", "canneal", "cg", 1, 99, false, false, false); err == nil {
		t.Fatal("bad P-state accepted")
	}
	if err := run("6core", "canneal", "cg", -3, 0, false, false, true); err == nil || !strings.Contains(err.Error(), "-3") {
		t.Fatalf("-n -3: err = %v, want a refusal naming -3", err)
	}
}

// TestRunJSON verifies the -json report is valid, complete JSON that
// matches the simulated run (scripting parity with the HTTP API).
func TestRunJSON(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run("6core", "canneal", "cg", 2, 1, false, false, true)
	w.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatal(runErr)
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, raw)
	}
	if rep.Machine != "Xeon E5649" || rep.Target != "canneal" || rep.CoApp != "cg" ||
		rep.NumCoLocated != 2 || rep.PState != 1 {
		t.Fatalf("report identity wrong: %+v", rep)
	}
	if rep.Slowdown <= 1 || rep.Seconds <= rep.BaselineSeconds || rep.Instructions == 0 {
		t.Fatalf("report values implausible: %+v", rep)
	}
	// Baseline run: no co_app key, slowdown 1.
	r2, w2, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w2
	runErr = run("6core", "canneal", "cg", 0, 0, false, false, true)
	w2.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatal(runErr)
	}
	raw2, _ := io.ReadAll(r2)
	var rep2 report
	if err := json.Unmarshal(raw2, &rep2); err != nil {
		t.Fatal(err)
	}
	if rep2.CoApp != "" || rep2.Slowdown != 1 {
		t.Fatalf("baseline report wrong: %+v", rep2)
	}
}
