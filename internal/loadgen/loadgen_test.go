package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"

	"colocmodel/internal/serve"
	"colocmodel/internal/xrand"
)

// mustStrictDecode decodes JSON exactly as the serve tier does:
// unknown fields are an error.
func mustStrictDecode(t *testing.T, raw []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("strict decode of %s: %v", raw, err)
	}
}

func TestWeightedNeverDrawsZeroWeight(t *testing.T) {
	src := xrand.New(3)
	w := xrand.NewWeighted(src, []float64{0, 1, 0, 2})
	for i := 0; i < 10000; i++ {
		got := w.Next()
		if got == 0 || got == 2 {
			t.Fatalf("drew zero-weight index %d", got)
		}
	}
}

func TestWeightedProportions(t *testing.T) {
	src := xrand.New(5)
	w := xrand.NewWeighted(src, []float64{1, 3})
	counts := [2]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[w.Next()]++
	}
	frac := float64(counts[1]) / n
	if frac < 0.72 || frac > 0.78 {
		t.Fatalf("weight-3 index drawn %.3f of the time, want ~0.75", frac)
	}
}

func TestSpaceScenarioRoundTrip(t *testing.T) {
	space, err := NewSpace([]string{"cg", "ep", "mg"}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantSize := 3 * (1 + 3*2) * 2
	if space.Size() != wantSize {
		t.Fatalf("Size = %d, want %d", space.Size(), wantSize)
	}
	seen := make(map[string]bool)
	for i := 0; i < space.Size(); i++ {
		sc := space.Scenario(i)
		if sc.Target == "" {
			t.Fatalf("scenario %d has empty target", i)
		}
		if sc.PState < 0 || sc.PState >= 2 {
			t.Fatalf("scenario %d pstate %d out of range", i, sc.PState)
		}
		if len(sc.CoApps) > 2 {
			t.Fatalf("scenario %d has %d co-apps, max 2", i, len(sc.CoApps))
		}
		key := sc.Target + "|" + string(rune('0'+sc.PState))
		for _, c := range sc.CoApps {
			key += "|" + c
		}
		if seen[key] {
			t.Fatalf("scenario %d duplicates %q", i, key)
		}
		seen[key] = true
	}
	if len(seen) != wantSize {
		t.Fatalf("decoded %d distinct scenarios, want %d", len(seen), wantSize)
	}
}

func TestSpaceValidation(t *testing.T) {
	cases := []struct {
		apps    []string
		pstates int
		maxCo   int
	}{
		{nil, 1, 1},
		{[]string{""}, 1, 1},
		{[]string{"cg"}, 0, 1},
		{[]string{"cg"}, 1, -1},
	}
	for _, c := range cases {
		if _, err := NewSpace(c.apps, c.pstates, c.maxCo); err == nil {
			t.Errorf("NewSpace(%v, %d, %d) accepted invalid input", c.apps, c.pstates, c.maxCo)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	space, err := NewSpace([]string{"cg", "ep", "canneal"}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	mix := Mix{ZipfSkew: 1.1, PredictWeight: 4, BatchWeight: 1, ObserveWeight: 1, ReloadWeight: 0.1, BatchSize: 4}
	stream := func() []Op {
		g := newGenerator(space, mix, xrand.New(99))
		ops := make([]Op, 500)
		for i := range ops {
			ops[i] = g.next()
		}
		return ops
	}
	a, b := stream(), stream()
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Path != b[i].Path || !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("op %d differs across identically seeded generators", i)
		}
	}
	// A different seed must produce a different stream.
	g2 := newGenerator(space, mix, xrand.New(100))
	same := 0
	for i := 0; i < 100; i++ {
		if bytes.Equal(a[i].Body, g2.next().Body) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds produced identical op streams")
	}
}

func TestGeneratorZipfSkew(t *testing.T) {
	space, err := NewSpace([]string{"cg", "ep", "mg", "lu"}, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(space, Mix{ZipfSkew: 1.2, PredictWeight: 1}, xrand.New(42))
	counts := make(map[string]int)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[string(g.next().Body)]++
	}
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	if freqs[0] < n/10 {
		t.Fatalf("hottest scenario got %d/%d draws; zipf skew not applied", freqs[0], n)
	}
	if len(counts) < 10 {
		t.Fatalf("only %d distinct scenarios drawn; tail missing", len(counts))
	}
}

// fixedDoer answers every op with a canned status and body, or fails
// it in transport with err.
type fixedDoer struct {
	status int
	body   []byte
	err    error
}

func (f *fixedDoer) Do(op Op) (int, http.Header, []byte, error) {
	return f.status, nil, f.body, f.err
}

// sequenceDoer answers its i-th call with generation gens[i]. It is
// for one worker only.
type sequenceDoer struct {
	gens []uint64
	i    int
}

func (s *sequenceDoer) Do(op Op) (int, http.Header, []byte, error) {
	body := fmt.Appendf(nil, `{"generation":%d}`, s.gens[s.i])
	s.i++
	return http.StatusOK, nil, body, nil
}

func testSpace(t *testing.T) *Space {
	t.Helper()
	space, err := NewSpace([]string{"cg", "ep"}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

func TestRunClosedLoopRequestBound(t *testing.T) {
	space := testSpace(t)
	rep, err := Run(Config{Workers: 4, Requests: 500, Seed: 7},
		&fixedDoer{status: 200, body: []byte(`{"generation":1}`)}, space)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 500 {
		t.Fatalf("issued %d requests, want 500", rep.Requests)
	}
	if v := rep.Gate(); len(v) != 0 {
		t.Fatalf("clean run violated the gate: %v", v)
	}
	if rep.PerOp[OpPredict] != 500 {
		t.Fatalf("per_op predict = %d, want 500", rep.PerOp[OpPredict])
	}
}

func TestRunCountsErrorStatuses(t *testing.T) {
	space := testSpace(t)
	for _, c := range []struct {
		d    Doer
		want func(*Result) uint64
	}{
		{&fixedDoer{status: 503}, func(r *Result) uint64 { return r.Status5xx }},
		{&fixedDoer{status: 400}, func(r *Result) uint64 { return r.Status4xx }},
		{&fixedDoer{err: errors.New("connection reset")}, func(r *Result) uint64 { return r.TransportErrors }},
	} {
		rep, err := Run(Config{Requests: 100, Seed: 1}, c.d, space)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.want(rep); got != 100 {
			t.Fatalf("%+v: counted %d of 100 failures in their class (%+v)", c.d, got, rep)
		}
		if v := rep.Gate(); len(v) != 1 {
			t.Fatalf("%+v: gate reported %v, want one violation", c.d, v)
		}
	}
}

// TestRunChecksGenerationsPerWorker: a worker whose predict replies go
// 2 → 1 counts one regression; replies that only repeat or rise count
// none.
func TestRunChecksGenerationsPerWorker(t *testing.T) {
	space := testSpace(t)
	for _, c := range []struct {
		gens []uint64
		want uint64
	}{
		{[]uint64{1, 1, 2, 2, 3}, 0},
		{[]uint64{1, 2, 1, 2, 3}, 1},
	} {
		d := &sequenceDoer{gens: c.gens}
		rep, err := Run(Config{Workers: 1, Requests: len(c.gens)}, d, space)
		if err != nil {
			t.Fatal(err)
		}
		if rep.GenerationRegressions != c.want {
			t.Fatalf("generations %v: %d regressions, want %d", c.gens, rep.GenerationRegressions, c.want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	space := testSpace(t)
	d := &fixedDoer{status: 200}
	for name, run := range map[string]func() (*Result, error){
		"nil doer":            func() (*Result, error) { return Run(Config{Requests: 1}, nil, space) },
		"nil space":           func() (*Result, error) { return Run(Config{Requests: 1}, d, nil) },
		"no request budget":   func() (*Result, error) { return Run(Config{}, d, space) },
		"negative workers":    func() (*Result, error) { return Run(Config{Requests: 1, Workers: -1}, d, space) },
		"negative mix weight": func() (*Result, error) { return Run(Config{Requests: 1, Mix: Mix{PredictWeight: -1}}, d, space) },
		"negative zipf skew":  func() (*Result, error) { return Run(Config{Requests: 1, Mix: Mix{ZipfSkew: -1}}, d, space) },
	} {
		if _, err := run(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestGate(t *testing.T) {
	if v := (&Result{Requests: 1000}).Gate(); len(v) != 0 {
		t.Fatalf("clean result violated the gate: %v", v)
	}
	v := (&Result{Requests: 1000, Status4xx: 1, Status5xx: 2, TransportErrors: 3, GenerationRegressions: 4}).Gate()
	if len(v) != 4 {
		t.Fatalf("expected 4 violations, got %d: %v", len(v), v)
	}
	for i, want := range []string{"1 of 1000", "2 of 1000", "3 of 1000", "4 of 1000"} {
		if !strings.HasPrefix(v[i], want) {
			t.Fatalf("violation %d = %q, want it to start %q", i, v[i], want)
		}
	}
}

func TestGeneratedBodiesMatchWireTypes(t *testing.T) {
	// decodeRequest on the serve side disallows unknown fields, so every
	// generated body must round-trip through the exact wire structs.
	space := testSpace(t)
	g := newGenerator(space, Mix{PredictWeight: 1, BatchWeight: 1, ObserveWeight: 1, PlacementWeight: 1, BatchSize: 3}, xrand.New(17))
	kinds := make(map[string]bool)
	for i := 0; i < 200; i++ {
		op := g.next()
		kinds[op.Kind] = true
		switch op.Kind {
		case OpPredict:
			var req serve.PredictRequest
			mustStrictDecode(t, op.Body, &req)
			if req.Target == "" {
				t.Fatal("predict body missing target")
			}
		case OpBatch:
			var req serve.BatchRequest
			mustStrictDecode(t, op.Body, &req)
			if len(req.Scenarios) != 3 {
				t.Fatalf("batch carries %d scenarios, want 3", len(req.Scenarios))
			}
		case OpObserve:
			var req serve.ObservationRequest
			mustStrictDecode(t, op.Body, &req)
			if req.MeasuredSeconds <= 0 {
				t.Fatalf("observation measured_seconds = %v, want > 0", req.MeasuredSeconds)
			}
		case OpPlacements:
			var req serve.PlacementsRequest
			mustStrictDecode(t, op.Body, &req)
			if len(req.Apps) < 3 || len(req.Apps) > 6 {
				t.Fatalf("placements carries %d apps, want 3..6", len(req.Apps))
			}
			if len(req.Machines) != 1 || req.Machines[0].Count != 2 {
				t.Fatalf("placements fleet %+v, want one entry with count 2", req.Machines)
			}
			if req.MaxSlowdown <= 1 || req.Beam <= 0 {
				t.Fatalf("placements bounds max_slowdown=%v beam=%d", req.MaxSlowdown, req.Beam)
			}
		}
	}
	for _, k := range []string{OpPredict, OpBatch, OpObserve, OpPlacements} {
		if !kinds[k] {
			t.Errorf("op kind %q never generated in 200 draws", k)
		}
	}
}
