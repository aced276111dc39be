package placement

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/simproc"
	"colocmodel/internal/xrand"
)

// updateGolden rewrites the corpus from whatever engine is checked out:
//
//	go test ./internal/placement/ -run TestGoldenPlans -update
//
// The committed corpus was generated at the commit before the engine moved
// to integer ids (PR 17's parent), so it pins that engine's plans.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_plans.ndjson from the current engine")

const goldenPath = "testdata/golden_plans.ndjson"

var (
	wideOnce sync.Once
	wideVal  *core.Model
	wideErr  error
)

// wideModel trains the repository benchmark's model: neural-net-F over
// harness.DefaultPlan on the 6-core machine — 11 apps, 6 P-states.
func wideModel(t testing.TB) *core.Model {
	t.Helper()
	wideOnce.Do(func() {
		ds, err := harness.Collect(harness.DefaultPlan(simproc.XeonE5649(), 1))
		if err != nil {
			wideErr = err
			return
		}
		set, _ := features.SetByName("F")
		wideVal, wideErr = core.Train(core.Spec{Technique: core.NeuralNet, FeatureSet: set, Seed: 1}, ds, ds.Records)
	})
	if wideErr != nil {
		t.Fatal(wideErr)
	}
	return wideVal
}

// wideProblem draws one problem of the repository benchmark's shape
// (bench/ops.go): 16 apps drawn from the model's, four 6-core machines,
// beam 12, QoS 2.5, a drawn search seed.
func wideProblem(m *core.Model, src *xrand.Source) Problem {
	names := m.Apps()
	prob := Problem{
		Model:    m,
		Machines: make([]Machine, 4),
		Apps:     make([]string, 16),
		QoSBound: 2.5,
		Seed:     src.Uint64(),
		Beam:     12,
	}
	for i := range prob.Machines {
		prob.Machines[i] = Machine{Spec: simproc.XeonE5649()}
	}
	for i := range prob.Apps {
		prob.Apps[i] = names[src.Intn(len(names))]
	}
	return prob
}

// wideProblems draws the n seeded benchmark-shaped problems the
// wide16x4 microbenchmark, the allocation guard and the row-accounting
// test share.
func wideProblems(t testing.TB, n int) []Problem {
	m, src := wideModel(t), xrand.New(0xb16)
	out := make([]Problem, n)
	for i := range out {
		out[i] = wideProblem(m, src)
	}
	return out
}

type goldenCase struct {
	name string
	prob Problem
}

// goldenProblems draws n seeded problems over m, cycling through eight
// variants so both objectives, QoS on and off, greedy-only search,
// restricted and per-machine-different P-state lists, capped cores,
// mixed 6-core + 12-core fleets, and all-identical and all-distinct app
// multisets are each covered n/8 times. psLists are allowed-P-state
// lists valid for the model.
func goldenProblems(tag string, seed uint64, m *core.Model, n int, psLists [][]int) []goldenCase {
	src := xrand.New(seed)
	names := m.Apps()
	six, twelve := simproc.XeonE5649(), simproc.XeonE52697v2()
	out := make([]goldenCase, 0, n)
	for i := 0; i < n; i++ {
		prob := wideProblem(m, src)
		variant := [...]string{"bench", "energy-restricted", "greedy", "energy-hetero",
			"identical", "distinct", "hetero-capped", "energy-pstates"}[i%8]
		switch variant {
		case "bench":
		case "energy-restricted":
			prob.Objective = MinEnergy
			prob.QoSBound = 0
			prob.Machines[1].PStates = psLists[0]
			prob.Machines[2].Cores = 3
			prob.Apps = prob.Apps[:14]
		case "greedy":
			prob.QoSBound = 0
			prob.Beam = 0
		case "energy-hetero":
			prob.Objective = MinEnergy
			prob.QoSBound = 1.3
			prob.Machines = []Machine{{Spec: six}, {Spec: twelve}, {Spec: six}}
			prob.Apps = append(prob.Apps, prob.Apps[:4]...)
		case "identical":
			for j := range prob.Apps {
				prob.Apps[j] = prob.Apps[0]
			}
		case "distinct":
			prob.Apps = append([]string(nil), names...)
			prob.Machines = prob.Machines[:3]
			for j := range prob.Machines {
				prob.Machines[j].PStates = psLists[(i/8+j)%len(psLists)]
			}
		case "hetero-capped":
			prob.Machines = []Machine{{Spec: twelve, Cores: 7}, {Spec: six, Cores: 4}, {Spec: six}, {Spec: twelve, Cores: 2, PStates: psLists[1]}}
			prob.Beam = 6
			prob.MaxRounds = 8
		case "energy-pstates":
			prob.Objective = MinEnergy
			for j := range prob.Machines {
				prob.Machines[j].PStates = psLists[1]
			}
		}
		out = append(out, goldenCase{name: fmt.Sprintf("%s/%03d-%s", tag, i, variant), prob: prob})
	}
	return out
}

// goldenRecord is one corpus line. Digest covers, newline-terminated and
// in order, the JSON of every plan Optimize streamed to onImprove, of the
// final Result with scenarios_predicted zeroed (the one field the engine
// may legitimately change: it counts model rows, not decisions), and of
// the PackFirst plan for the same problem — about 20 KB a case, which is
// why the corpus keeps its SHA-256 and only the final plan's decisions in
// the clear.
type goldenRecord struct {
	Case        string     `json:"case"`
	Streamed    int        `json:"streamed"`
	Digest      string     `json:"sha256"`
	Assignments [][]string `json:"assignments"`
	PStates     []int      `json:"pstates,omitempty"`
	Objective   float64    `json:"objective,omitempty"`
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(js, '\n')
}

func optimizeRecord(t testing.TB, c goldenCase) (goldenRecord, []byte) {
	t.Helper()
	var raw []byte
	streamed := 0
	res, err := Optimize(context.Background(), c.prob, func(p *Plan) {
		streamed++
		raw = append(raw, mustJSON(t, p)...)
	})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	res.Stats.Scenarios = 0
	raw = append(raw, mustJSON(t, res)...)
	base, err := PackFirst(context.Background(), c.prob)
	if err != nil {
		t.Fatalf("%s: pack-first: %v", c.name, err)
	}
	raw = append(raw, mustJSON(t, base)...)
	sum := sha256.Sum256(raw)
	return goldenRecord{
		Case: c.name, Streamed: streamed, Digest: hex.EncodeToString(sum[:]),
		Assignments: res.Plan.Assignments, PStates: res.Plan.PStates, Objective: res.Plan.Objective,
	}, raw
}

// TestGoldenPlans pins every byte the optimizer reports — streamed plans,
// final result and the pack-first baseline —
// against a corpus generated by the string-keyed engine this one
// replaced: the search may get cheaper, its plans may not move.
func TestGoldenPlans(t *testing.T) {
	small, wide := trainedModel(t), wideModel(t)
	cases := goldenProblems("test", 0x601d, small, 64, [][]int{{1}, {0}, {0, 1}})
	cases = append(cases, goldenProblems("wide", 0x3a9e, wide, 72, [][]int{{2, 4}, {1, 3, 5}, {0}, {5}, {0, 1, 2}})...)
	var got []goldenRecord
	raws := make(map[string][]byte)
	for _, c := range cases {
		rec, raw := optimizeRecord(t, c)
		got = append(got, rec)
		raws[rec.Case] = raw
	}

	if *updateGolden {
		var buf bytes.Buffer
		for _, rec := range got {
			buf.Write(mustJSON(t, rec))
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(got), goldenPath)
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	i, dumped := 0, false
	for ; sc.Scan(); i++ {
		if i >= len(got) {
			t.Fatalf("corpus has more than the %d records the generator draws", len(got))
		}
		want := bytes.TrimSpace(sc.Bytes())
		if have := bytes.TrimSpace(mustJSON(t, got[i])); !bytes.Equal(have, want) {
			t.Errorf("record %d diverges from the corpus:\n got %s\nwant %s", i, have, want)
			if raw := raws[got[i].Case]; raw != nil && !dumped {
				dumped = true // one full dump is enough to debug with
				t.Logf("everything %s reported:\n%s", got[i].Case, raw)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(got) {
		t.Fatalf("corpus has %d records, generator draws %d", i, len(got))
	}
}
