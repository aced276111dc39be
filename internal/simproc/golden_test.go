package simproc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"colocmodel/internal/workload"
)

// updateGolden rewrites the run golden from the engine checked out:
//
//	go test ./internal/simproc/ -run TestRunsGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/runs_golden.json from the current engine")

const runsGoldenPath = "testdata/runs_golden.json"

// goldenRun is one corpus line: a whole Result, or SteadyRates' output.
// encoding/json writes the shortest decimal that parses back to the same
// float64, so the text pins every bit.
type goldenRun struct {
	Case   string    `json:"case"`
	Result *Result   `json:"result,omitempty"`
	Rates  []float64 `json:"rates,omitempty"`
}

// goldenRuns covers the co-runner lists the Table V sweep never builds:
// mixed lists with adjacent and non-adjacent duplicates, a target that is
// also its co-runner, a recorded timeline and SteadyRates, beside the
// sweep's own homogeneous shapes.
func goldenRuns(t *testing.T) []goldenRun {
	t.Helper()
	p6, p12 := proc6(t), proc12(t)
	cg, ep, canneal := app(t, "cg"), app(t, "ep"), app(t, "canneal")
	copies := func(a workload.App, k int) []workload.App {
		out := make([]workload.App, k)
		for i := range out {
			out[i] = a
		}
		return out
	}
	cases := []struct {
		name   string
		p      *Processor
		target workload.App
		co     []workload.App
		pstate int
		opts   Options
	}{
		{"6core/canneal-solo", p6, canneal, nil, 0, Options{}},
		{"6core/canneal+1cg", p6, canneal, copies(cg, 1), 0, Options{}},
		{"6core/canneal+5cg", p6, canneal, copies(cg, 5), 0, Options{}},
		{"12core/canneal+11cg", p12, canneal, copies(cg, 11), 0, Options{}},
		{"6core/canneal+[cg,cg,ep,ep,ep]/P2", p6, canneal, []workload.App{cg, cg, ep, ep, ep}, 2, Options{}},
		{"6core/canneal+[cg,ep,cg]", p6, canneal, []workload.App{cg, ep, cg}, 0, Options{}},
		{"6core/cg+3cg", p6, cg, copies(cg, 3), 0, Options{}},
		{"6core/canneal+2cg/timeline", p6, canneal, copies(cg, 2), 0, Options{Epochs: 32, Timeline: true}},
	}
	var out []goldenRun
	for _, c := range cases {
		r, err := c.p.RunColocation(c.target, c.co, c.pstate, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// Copies of one co-runner start alike and stay alike.
		for i, a := range r.CoRunners {
			for _, b := range r.CoRunners[:i] {
				if a.App == b.App && a != b {
					t.Errorf("%s: copies of %s report %+v and %+v", c.name, a.App.Name, b, a)
				}
			}
		}
		out = append(out, goldenRun{Case: c.name, Result: &r})
	}
	rates, err := p6.SteadyRates([]workload.App{cg, cg, ep}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rates[0] != rates[1] {
		t.Errorf("SteadyRates: two cg copies run at %v and %v", rates[0], rates[1])
	}
	return append(out, goldenRun{Case: "6core/steady[cg,cg,ep]", Rates: rates})
}

// TestRunsGolden pins whole Results of the engine, bit for bit, on the
// shapes in goldenRuns: a faster fixed point must reach the same one.
func TestRunsGolden(t *testing.T) {
	var have bytes.Buffer
	for _, g := range goldenRuns(t) {
		line, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		have.Write(append(line, '\n'))
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(runsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(runsGoldenPath, have.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(runsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got, want := bufio.NewScanner(&have), bufio.NewScanner(bytes.NewReader(raw))
	got.Buffer(nil, 1<<20)
	want.Buffer(nil, 1<<20)
	for i := 0; ; i++ {
		g, w := got.Scan(), want.Scan()
		if !g || !w {
			if g != w {
				t.Fatalf("line %d: the engine and %s end at different lines", i+1, runsGoldenPath)
			}
			break
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("line %d diverges from %s:\n got %s\nwant %s", i+1, runsGoldenPath, got.Bytes(), want.Bytes())
		}
	}
}
