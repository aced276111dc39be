package main

import (
	"encoding/json"
	"io"
	"regexp"
	"testing"
	"time"
)

// smokeConfig shrinks a run to one pipeline pass and a second or so of
// load: enough for every metric to have samples, far too little for any
// of them to mean anything.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig(workload, 7, 1, trace)
	cfg.tmp = t.TempDir()
	cfg.measure, cfg.warmup = time.Second, 100*time.Millisecond
	if trace {
		// Long enough under the race detector for the measured span to
		// hold a replayed placement, one in eight of one op in eight.
		cfg.measure = 4 * time.Second
	}
	cfg.rounds = 1
	cfg.setupPasses, cfg.offlinePasses = 1, 2
	cfg.nullCalls, cfg.wireCalls = 2000, 100
	return cfg
}

// TestLedgerMatchesBenchmarkJSON runs every workload for its end-to-end
// metrics and one traced run for the per-layer ones (a traced run drives
// every family whatever the workload), and holds what they print against
// BENCHMARK.json: every named metric exactly once with its unit, nothing
// unnamed, no failed operation, and the file itself inside the driver's
// limits.
func TestLedgerMatchesBenchmarkJSON(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	seen := map[string]bool{}
	declare := func(kind, n, u, better string, into map[string]string) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("%s metric %q unit %q: outside the allowed characters", kind, n, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s metric %q: better is %q", kind, n, better)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		into[n] = u
	}
	setup := false
	for _, m := range spec.EndToEnd {
		declare("end-to-end", m.Name, m.Unit, m.Better, endToEnd)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		declare("per-layer", m.Name, m.Unit, m.Better, perLayer)
	}
	var named []string
	for _, wl := range spec.Workloads {
		if !name.MatchString(wl.Name) || seen[wl.Name] || wl.Why == "" || len(wl.Why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or a why that is empty or too long", wl.Name)
		}
		seen[wl.Name] = true
		named = append(named, wl.Name)
	}
	if len(named) != len(workloads) {
		t.Fatalf("BENCHMARK.json names workloads %v, the driver runs %v", named, workloads)
	}

	type smoke struct {
		workload string
		trace    bool
		want     map[string]string
	}
	runs := []smoke{{"node_wide", true, perLayer}}
	for _, wl := range named {
		runs = append(runs, smoke{wl, false, endToEnd})
	}
	for _, sm := range runs {
		label := "end_to_end"
		if sm.trace {
			label = "per_layer"
		}
		t.Run(sm.workload+"/"+label, func(t *testing.T) {
			rep, err := run(smokeConfig(t, sm.workload, sm.trace), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.failures)
			}
			got := map[string]string{}
			for _, m := range rep.metrics {
				got[m.name] = m.unit
			}
			for n, u := range sm.want {
				if gu, ok := got[n]; !ok {
					t.Errorf("metric %s named in BENCHMARK.json is not emitted", n)
				} else if gu != u {
					t.Errorf("metric %s emitted in %q, BENCHMARK.json says %q", n, gu, u)
				}
			}
			for n := range got {
				if _, ok := sm.want[n]; !ok {
					t.Errorf("metric %s is emitted but not named in BENCHMARK.json", n)
				}
			}
			line, err := rep.summaryLine()
			if err != nil {
				t.Fatal(err)
			}
			var last map[string]json.RawMessage
			if err := json.Unmarshal(line, &last); err != nil || len(last) != 4 {
				t.Errorf("last line %s: want exactly correct, attempted, failed and metrics (%v)", line, err)
			}
		})
	}
}

// TestSameSeedSameOps pins the seed contract: the op streams are a
// function of the seed alone.
func TestSameSeedSameOps(t *testing.T) {
	cfg := smokeConfig(t, "offline", false)
	it, err := pipelineIteration(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	hashes := func(seed uint64) []string {
		hot, err := hotOps(it.model, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		observe, err := observeOps(it.model, seed)
		if err != nil {
			t.Fatal(err)
		}
		wide := wideOps(it.model, seed, 2)
		return []string{hot.hash(0), hot.hash(1), wide.hash(0), wide.hash(1), observe.hash(0)}
	}
	a, b, other := hashes(3), hashes(3), hashes(4)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("stream %d: seed 3 gave %s then %s", i, a[i], b[i])
		}
		if a[i] == other[i] {
			t.Errorf("stream %d: seeds 3 and 4 both gave %s", i, a[i])
		}
	}
	if a[0] == a[1] {
		t.Errorf("both hot clients replay the same stream %s", a[0])
	}
}
