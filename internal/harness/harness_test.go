package harness

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
	"colocmodel/internal/xrand"
)

// smallPlan keeps tests fast: two targets, two co-apps, two counts, two
// P-states.
func smallPlan(t testing.TB, noise float64) Plan {
	t.Helper()
	cg, err := workload.ByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	ep, err := workload.ByName("ep")
	if err != nil {
		t.Fatal(err)
	}
	canneal, err := workload.ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	return Plan{
		Spec:       simproc.XeonE5649(),
		Targets:    []workload.App{canneal, ep},
		CoApps:     []workload.App{cg, ep},
		CoCounts:   []int{1, 3},
		PStates:    []int{0, 5},
		NoiseSigma: noise,
		Seed:       1,
	}
}

func TestDefaultCoCounts(t *testing.T) {
	if got := DefaultCoCounts(6); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("6-core counts = %v", got)
	}
	if got := DefaultCoCounts(12); !reflect.DeepEqual(got, []int{1, 2, 3, 5, 7, 9, 11}) {
		t.Fatalf("12-core counts = %v", got)
	}
	if got := DefaultCoCounts(1); got != nil {
		t.Fatalf("1-core counts = %v", got)
	}
	// Even max gets appended explicitly.
	if got := DefaultCoCounts(9); !reflect.DeepEqual(got, []int{1, 2, 3, 5, 7, 8}) {
		t.Fatalf("9-core counts = %v", got)
	}
}

func TestDefaultPlanMatchesTableV(t *testing.T) {
	p := DefaultPlan(simproc.XeonE5649(), 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Targets) != 11 {
		t.Fatalf("targets = %d, want 11", len(p.Targets))
	}
	if len(p.CoApps) != 4 {
		t.Fatalf("co-apps = %d, want 4", len(p.CoApps))
	}
	if len(p.PStates) != 6 {
		t.Fatalf("P-states = %d, want 6", len(p.PStates))
	}
	if want := 11 * 4 * 5 * 6; p.RunCount() != want {
		t.Fatalf("run count = %d, want %d", p.RunCount(), want)
	}
	p12 := DefaultPlan(simproc.XeonE52697v2(), 1)
	if want := 11 * 4 * 7 * 6; p12.RunCount() != want {
		t.Fatalf("12-core run count = %d, want %d", p12.RunCount(), want)
	}
}

func TestPlanValidation(t *testing.T) {
	base := smallPlan(t, 0.01)
	mut := []func(*Plan){
		func(p *Plan) { p.Targets = nil },
		func(p *Plan) { p.CoApps = nil },
		func(p *Plan) { p.CoCounts = nil },
		func(p *Plan) { p.CoCounts = []int{0} },
		func(p *Plan) { p.CoCounts = []int{6} }, // 6-core machine: max 5
		func(p *Plan) { p.PStates = nil },
		func(p *Plan) { p.PStates = []int{9} },
		func(p *Plan) { p.NoiseSigma = -1 },
		func(p *Plan) { p.NoiseSigma = 0.5 },
		func(p *Plan) { p.Spec.Cores = 0 },
	}
	for i, m := range mut {
		p := base
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestCollectShape(t *testing.T) {
	p := smallPlan(t, 0.01)
	ds, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Machine != "Xeon E5649" {
		t.Fatalf("machine = %q", ds.Machine)
	}
	if len(ds.Records) != p.RunCount() {
		t.Fatalf("records = %d, want %d", len(ds.Records), p.RunCount())
	}
	// Baselines for the union of targets and co-apps: canneal, ep, cg.
	if len(ds.Baselines) != 3 {
		t.Fatalf("baselines = %d, want 3", len(ds.Baselines))
	}
	for name, b := range ds.Baselines {
		if len(b.SecondsByPState) != 6 {
			t.Fatalf("%s baseline has %d P-state times", name, len(b.SecondsByPState))
		}
		for i, s := range b.SecondsByPState {
			if s <= 0 {
				t.Fatalf("%s baseline P%d nonpositive", name, i)
			}
		}
		if b.MemIntensity <= 0 || b.CMPerCA <= 0 || b.CAPerIns <= 0 {
			t.Fatalf("%s baseline metrics empty: %+v", name, b)
		}
	}
	if got := ds.Targets(); len(got) != 2 {
		t.Fatalf("dataset targets = %v", got)
	}
	if got := ds.RecordsForTarget("canneal"); len(got) != p.RunCount()/2 {
		t.Fatalf("canneal records = %d", len(got))
	}
}

func TestCollectDeterministicGivenSeed(t *testing.T) {
	p := smallPlan(t, 0.01)
	a, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		if a.Records[i].Seconds != b.Records[i].Seconds {
			t.Fatalf("record %d differs between identical collects", i)
		}
	}
}

func TestNoiseIsSmallAndCentered(t *testing.T) {
	p := smallPlan(t, 0.01)
	ds, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	sumRatio := 0.0
	for _, r := range ds.Records {
		ratio := r.Seconds / r.TrueSeconds
		if ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("noise ratio %v out of ±10%%", ratio)
		}
		sumRatio += ratio
	}
	mean := sumRatio / float64(len(ds.Records))
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("noise not centered: mean ratio %v", mean)
	}
}

func TestZeroNoiseIsExact(t *testing.T) {
	p := smallPlan(t, 0)
	ds, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Records {
		if r.Seconds != r.TrueSeconds {
			t.Fatal("zero-noise record differs from true value")
		}
	}
}

func TestColocationSlowerThanBaseline(t *testing.T) {
	p := smallPlan(t, 0)
	ds, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Records {
		b, err := ds.Baseline(r.Target)
		if err != nil {
			t.Fatal(err)
		}
		if r.Seconds < b.SecondsByPState[r.PState]*0.999 {
			t.Fatalf("%s + %d×%s faster than baseline: %v < %v",
				r.Target, r.NumCoLoc, r.CoApp, r.Seconds, b.SecondsByPState[r.PState])
		}
	}
}

func TestBaselineLookupError(t *testing.T) {
	ds := &Dataset{Baselines: map[string]Baseline{}}
	if _, err := ds.Baseline("nope"); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	p := smallPlan(t, 0.01)
	ds, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Machine != ds.Machine || got.LLCBytes != ds.LLCBytes {
		t.Fatalf("meta mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.PStateFreqs, ds.PStateFreqs) {
		t.Fatalf("P-state freqs mismatch: %v vs %v", got.PStateFreqs, ds.PStateFreqs)
	}
	if !reflect.DeepEqual(got.Baselines, ds.Baselines) {
		t.Fatal("baselines mismatch after round trip")
	}
	if !reflect.DeepEqual(got.Records, ds.Records) {
		t.Fatal("records mismatch after round trip")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus,row\n",
		"meta,machine\n",                        // short meta
		"meta,m,12\nbaseline,app,x,y,z,1\n",     // bad float
		"meta,m,12\nrecord,m,0,2.5,t,c,1,bad\n", // short/bad record
		"meta,m,12\nrecord,m,a,2.5,t,c,1,1,1,1,1,1,1\n", // bad pstate
	}
	for i, c := range cases {
		if _, err := ReadCSV(bytes.NewBufferString(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func BenchmarkCollectSmallPlan(b *testing.B) {
	p := smallPlan(b, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Collect(p); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzReadCSV guards the dataset parser against malformed input: it must
// return an error or a dataset, never panic, and any dataset it accepts
// must round-trip.
func FuzzReadCSV(f *testing.F) {
	p := smallPlan(f, 0.01)
	ds, err := Collect(p)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("meta,m,12\n")
	f.Add("bogus\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		got, err := ReadCSV(bytes.NewBufferString(input))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.WriteCSV(&out); err != nil {
			t.Fatalf("accepted dataset failed to serialise: %v", err)
		}
		if _, err := ReadCSV(&out); err != nil {
			t.Fatalf("round trip of accepted dataset failed: %v", err)
		}
	})
}

func TestCollectScenariosAndRandomMixed(t *testing.T) {
	proc, err := simproc.New(simproc.XeonE5649())
	if err != nil {
		t.Fatal(err)
	}
	src := xrand.New(6)
	targets := []workload.App{}
	for _, n := range []string{"canneal", "ep"} {
		a, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, a)
	}
	scs, err := RandomMixedScenarios(targets, workload.All(), 5, 8, []int{0, 3}, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 8 {
		t.Fatalf("got %d scenarios", len(scs))
	}
	for _, sc := range scs {
		if len(sc.CoApps) < 1 || len(sc.CoApps) > 5 {
			t.Fatalf("co-runner count %d out of [1,5]", len(sc.CoApps))
		}
		if sc.PState != 0 && sc.PState != 3 {
			t.Fatalf("unexpected P-state %d", sc.PState)
		}
	}
	measured, err := CollectScenarios(proc, scs, 0.01, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(measured) != len(scs) {
		t.Fatalf("measured %d of %d", len(measured), len(scs))
	}
	for i, m := range measured {
		if m.Seconds <= 0 {
			t.Fatalf("scenario %d has no time", i)
		}
		if m.Machine != "Xeon E5649" || len(m.CoApps) != len(scs[i].CoApps) {
			t.Fatalf("record %d metadata wrong: %+v", i, m)
		}
	}
}

func TestCollectScenariosErrors(t *testing.T) {
	src := xrand.New(7)
	if _, err := CollectScenarios(nil, nil, 0, src); err == nil {
		t.Fatal("nil processor accepted")
	}
	proc, _ := simproc.New(simproc.XeonE5649())
	cg, _ := workload.ByName("cg")
	bad := []Scenario{{Target: cg, PState: 99}}
	if _, err := CollectScenarios(proc, bad, 0, src); err == nil {
		t.Fatal("bad P-state accepted")
	}
	if _, err := RandomMixedScenarios(nil, nil, 1, 1, []int{0}, src); err == nil {
		t.Fatal("empty pools accepted")
	}
	if _, err := RandomMixedScenarios([]workload.App{cg}, []workload.App{cg}, 0, 1, []int{0}, src); err == nil {
		t.Fatal("zero maxCo accepted")
	}
	if _, err := RandomMixedScenarios([]workload.App{cg}, []workload.App{cg}, 1, 1, nil, src); err == nil {
		t.Fatal("no P-states accepted")
	}
}

func TestAsRecords(t *testing.T) {
	cases := []struct {
		name string
		in   MixedRecord
		want *Record // nil: skipped as heterogeneous
	}{
		{
			name: "homogeneous",
			in:   MixedRecord{Machine: "m", Target: "t", CoApps: []string{"cg", "cg"}, Seconds: 10, TrueSeconds: 9.5, PState: 1, FreqGHz: 2},
			want: &Record{Machine: "m", Target: "t", CoApp: "cg", NumCoLoc: 2, Seconds: 10, TrueSeconds: 9.5, PState: 1, FreqGHz: 2},
		},
		{
			name: "heterogeneous",
			in:   MixedRecord{Machine: "m", Target: "t", CoApps: []string{"cg", "ep"}, Seconds: 12, TrueSeconds: 12.1},
		},
		{
			name: "solo",
			in:   MixedRecord{Machine: "m", Target: "t", Seconds: 7, TrueSeconds: 7.2},
			want: &Record{Machine: "m", Target: "t", Seconds: 7, TrueSeconds: 7.2},
		},
		{
			name: "empty co-runner list",
			in:   MixedRecord{Machine: "m", Target: "t", CoApps: []string{}, Seconds: 7, TrueSeconds: 7.2},
			want: &Record{Machine: "m", Target: "t", Seconds: 7, TrueSeconds: 7.2},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			recs, skipped := AsRecords([]MixedRecord{c.in})
			if c.want == nil {
				if len(recs) != 0 || skipped != 1 {
					t.Fatalf("got %+v, %d skipped; want it skipped", recs, skipped)
				}
				return
			}
			if skipped != 0 || len(recs) != 1 || recs[0] != *c.want {
				t.Fatalf("got %+v, %d skipped; want %+v", recs, skipped, *c.want)
			}
		})
	}
	if got := SortScenarioNames([]string{"b", "a"}); got[0] != "a" {
		t.Fatalf("sorted = %v", got)
	}
}

// TestCollectScenariosSoloAsRecord measures a valid scenario with no
// co-runners and converts it: a solo record, its noise-free time kept.
func TestCollectScenariosSoloAsRecord(t *testing.T) {
	proc, err := simproc.New(simproc.XeonE5649())
	if err != nil {
		t.Fatal(err)
	}
	ep, err := workload.ByName("ep")
	if err != nil {
		t.Fatal(err)
	}
	measured, err := CollectScenarios(proc, []Scenario{{Target: ep}}, 0.01, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	base, err := proc.RunBaseline(ep, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, skipped := AsRecords(measured)
	if skipped != 0 || len(recs) != 1 {
		t.Fatalf("got %d records, %d skipped", len(recs), skipped)
	}
	r := recs[0]
	if r.CoApp != "" || r.NumCoLoc != 0 || r.TrueSeconds != base.TargetSeconds || r.Seconds == r.TrueSeconds {
		t.Fatalf("record = %+v, want solo with TrueSeconds %v and noisy Seconds", r, base.TargetSeconds)
	}
}
