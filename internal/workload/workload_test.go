package workload

import (
	"math"
	"testing"
)

const testLLC = 12 * 1024 * 1024 // the 6-core machine's LLC

func TestAllElevenAppsValid(t *testing.T) {
	as := All()
	if len(as) != 11 {
		t.Fatalf("got %d applications, want 11 (Table III)", len(as))
	}
	for _, a := range as {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestSuiteSplit(t *testing.T) {
	// Table III draws from both PARSEC (P) and NAS (N).
	counts := map[Suite]int{}
	for _, a := range All() {
		counts[a.Suite]++
	}
	if counts[PARSEC] == 0 || counts[NAS] == 0 {
		t.Fatalf("suite split %v, want both suites represented", counts)
	}
}

func TestAllSortedByClassThenName(t *testing.T) {
	as := All()
	for i := 1; i < len(as); i++ {
		if as[i].Class < as[i-1].Class {
			t.Fatal("not sorted by class")
		}
		if as[i].Class == as[i-1].Class && as[i].Name < as[i-1].Name {
			t.Fatal("not sorted by name within class")
		}
	}
}

func TestEveryClassPopulated(t *testing.T) {
	populated := map[Class]bool{}
	for _, a := range All() {
		populated[a.Class] = true
	}
	for c := ClassI; c <= ClassIV; c++ {
		if !populated[c] {
			t.Fatalf("%v has no applications", c)
		}
	}
}

func TestClassStrings(t *testing.T) {
	if ClassI.String() != "Class I" || ClassIV.String() != "Class IV" {
		t.Fatal("class names wrong")
	}
	if Class(9).String() == "" {
		t.Fatal("unknown class empty string")
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("cg")
	if err != nil || a.Name != "cg" || a.Suite != NAS {
		t.Fatalf("ByName(cg) = %+v, %v", a, err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestTrainingCoAppsOnePerClass(t *testing.T) {
	co := TrainingCoApps()
	if len(co) != 4 {
		t.Fatalf("got %d training co-apps, want 4", len(co))
	}
	seen := map[Class]bool{}
	for _, a := range co {
		if seen[a.Class] {
			t.Fatalf("class %v represented twice", a.Class)
		}
		seen[a.Class] = true
	}
	// The paper names them explicitly (Section IV-B3).
	want := map[string]bool{"cg": true, "sp": true, "fluidanimate": true, "ep": true}
	for _, a := range co {
		if !want[a.Name] {
			t.Fatalf("unexpected training co-app %s", a.Name)
		}
	}
}

// TestClassIntensityOrdering verifies the central Table III property: the
// four classes are separated in baseline memory intensity, with classes
// differing by roughly orders of magnitude.
func TestClassIntensityOrdering(t *testing.T) {
	minByClass := map[Class]float64{}
	maxByClass := map[Class]float64{}
	for _, a := range All() {
		mi := baselineMI(a, testLLC)
		if cur, ok := minByClass[a.Class]; !ok || mi < cur {
			minByClass[a.Class] = mi
		}
		if cur, ok := maxByClass[a.Class]; !ok || mi > cur {
			maxByClass[a.Class] = mi
		}
	}
	for c := ClassI; c < ClassIV; c++ {
		lo := minByClass[c]
		hiNext := maxByClass[c+1]
		if lo <= hiNext*3 {
			t.Errorf("%v min intensity %.3e not well separated from %v max %.3e",
				c, lo, c+1, hiNext)
		}
	}
	// Order-of-magnitude span between Class I and Class IV.
	if minByClass[ClassI] < 1000*maxByClass[ClassIV] {
		t.Errorf("Class I (%.3e) and Class IV (%.3e) differ by less than 3 orders of magnitude",
			minByClass[ClassI], maxByClass[ClassIV])
	}
}

func TestIntensityStableAcrossMachines(t *testing.T) {
	// The paper notes memory intensity values "do not vary widely
	// between the machines we tested": class membership must be the same
	// at the 12-core machine's 30 MB LLC.
	const llc12 = 30 * 1024 * 1024
	for _, a := range All() {
		mi6 := baselineMI(a, testLLC)
		mi12 := baselineMI(a, llc12)
		if mi12 > mi6*1.01 {
			t.Errorf("%s: intensity grows with larger cache (%.3e -> %.3e)", a.Name, mi6, mi12)
		}
	}
}

// nonFinite are the values every real-valued parameter check must refuse.
var nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

func TestValidateCatchesBadApps(t *testing.T) {
	good, _ := ByName("cg")
	mut := []func(*App){
		func(a *App) { a.Name = "" },
		func(a *App) { a.Suite = "SPEC" },
		func(a *App) { a.Class = 0 },
		func(a *App) { a.Instructions = 0 },
		func(a *App) { a.BaseCPI = -1 },
		func(a *App) { a.LLCAccessRate = 2 },
		func(a *App) { a.MRC.Alpha = 0 },
		func(a *App) { a.MissExposeFrac = 0 },
		func(a *App) { a.HitExposeFrac = 2 },
		func(a *App) { a.PhaseAmplitude = 0.9 },
	}
	for i, m := range mut {
		a := good
		m(&a)
		if err := a.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// Every real-valued App parameter must refuse every non-finite value.
	fields := []struct {
		name  string
		field func(*App) *float64
	}{
		{"Instructions", func(a *App) *float64 { return &a.Instructions }},
		{"BaseCPI", func(a *App) *float64 { return &a.BaseCPI }},
		{"LLCAccessRate", func(a *App) *float64 { return &a.LLCAccessRate }},
		{"MRC.WorkingSetBytes", func(a *App) *float64 { return &a.MRC.WorkingSetBytes }},
		{"MRC.Knee", func(a *App) *float64 { return &a.MRC.Knee }},
		{"MRC.Floor", func(a *App) *float64 { return &a.MRC.Floor }},
		{"MRC.Alpha", func(a *App) *float64 { return &a.MRC.Alpha }},
		{"MissExposeFrac", func(a *App) *float64 { return &a.MissExposeFrac }},
		{"HitExposeFrac", func(a *App) *float64 { return &a.HitExposeFrac }},
		{"PhaseAmplitude", func(a *App) *float64 { return &a.PhaseAmplitude }},
	}
	for _, f := range fields {
		for _, v := range nonFinite {
			a := good
			*f.field(&a) = v
			if err := a.Validate(); err == nil {
				t.Errorf("%s = %v accepted", f.name, v)
			}
		}
	}
}

func TestBaselineMissRatioMonotoneInCapacity(t *testing.T) {
	for _, a := range All() {
		small := a.MRC.Ratio(1 << 20)
		large := a.MRC.Ratio(1 << 30)
		if large > small {
			t.Errorf("%s: miss ratio grows with capacity", a.Name)
		}
	}
}

func TestPowerLawMRCValidate(t *testing.T) {
	good := PowerLawMRC{WorkingSetBytes: 1 << 20, Knee: 0.8, Floor: 0.01, Alpha: 0.7}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []PowerLawMRC{
		{WorkingSetBytes: 0, Knee: 0.5, Floor: 0.1, Alpha: 1},
		{WorkingSetBytes: 1, Knee: 1.5, Floor: 0.1, Alpha: 1},
		{WorkingSetBytes: 1, Knee: 0.2, Floor: 0.5, Alpha: 1},
		{WorkingSetBytes: 1, Knee: 0.5, Floor: 0.1, Alpha: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Fatalf("bad MRC %d accepted", i)
		}
	}
}

func TestPowerLawMRCShape(t *testing.T) {
	m := PowerLawMRC{WorkingSetBytes: 8 << 20, Knee: 0.9, Floor: 0.02, Alpha: 0.8}
	// Monotone non-increasing.
	prev := m.Ratio(1)
	for c := 2.0; c < 1e9; c *= 1.5 {
		r := m.Ratio(c)
		if r > prev+1e-12 {
			t.Fatalf("MRC not monotone at %v: %v > %v", c, r, prev)
		}
		if r < 0 || r > 1 {
			t.Fatalf("MRC out of range at %v: %v", c, r)
		}
		prev = r
	}
	// Limits.
	if m.Ratio(0) != 0.9 {
		t.Fatalf("knee = %v", m.Ratio(0))
	}
	if got := m.Ratio(1e15); math.Abs(got-0.02) > 1e-3 {
		t.Fatalf("floor = %v", got)
	}
	// Continuity near the working-set point.
	a, b := m.Ratio(8<<20-1), m.Ratio(8<<20+1)
	if math.Abs(a-b) > 1e-6 {
		t.Fatalf("discontinuity at working set: %v vs %v", a, b)
	}
}

func TestNames(t *testing.T) {
	ns := Names(TrainingCoApps())
	if len(ns) != 4 || ns[0] != "cg" {
		t.Fatalf("Names = %v", ns)
	}
}

func TestMicrobenchmarksValid(t *testing.T) {
	ms := Microbenchmarks()
	if len(ms) != 4 {
		t.Fatalf("got %d microbenchmarks, want 4", len(ms))
	}
	for _, m := range ms {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	// Microbenchmarks are not part of the Table III registry.
	for _, m := range ms {
		if _, err := ByName(m.Name); err == nil {
			t.Errorf("%s leaked into the Table III registry", m.Name)
		}
	}
	if _, ok := MicrobenchmarkByName("stream"); !ok {
		t.Fatal("stream lookup failed")
	}
	if _, ok := MicrobenchmarkByName("doom"); ok {
		t.Fatal("unknown microbenchmark found")
	}
}

func TestMicrobenchmarkExtremes(t *testing.T) {
	stream, _ := MicrobenchmarkByName("stream")
	dgemm, _ := MicrobenchmarkByName("dgemm")
	pchase, _ := MicrobenchmarkByName("pchase")
	// stream: maximal bandwidth demand (intensity above every Table III app).
	for _, a := range All() {
		if baselineMI(a, testLLC) >= baselineMI(stream, testLLC) {
			t.Errorf("%s intensity exceeds stream's", a.Name)
		}
	}
	// dgemm: CPU-bound.
	if baselineMI(dgemm, testLLC) > 1e-4 {
		t.Error("dgemm not CPU-bound")
	}
	// pchase: fully serialised misses.
	if pchase.MissExposeFrac != 1.0 {
		t.Error("pchase misses not fully exposed")
	}
}

func TestScaled(t *testing.T) {
	cg, _ := ByName("cg")
	big, err := cg.Scaled(".C", 4)
	if err != nil {
		t.Fatal(err)
	}
	if big.Name != "cg.C" {
		t.Fatalf("name = %q", big.Name)
	}
	if big.Instructions != 4*cg.Instructions {
		t.Fatal("instructions not scaled linearly")
	}
	wantWS := cg.MRC.WorkingSetBytes * math.Pow(4, 2.0/3.0)
	if math.Abs(big.MRC.WorkingSetBytes-wantWS) > 1 {
		t.Fatalf("working set %v, want %v", big.MRC.WorkingSetBytes, wantWS)
	}
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
	// Larger problems are at least as memory intensive at fixed cache.
	if baselineMI(big, testLLC) < baselineMI(cg, testLLC) {
		t.Fatal("scaling reduced memory intensity")
	}
	for _, f := range append([]float64{0}, nonFinite...) {
		if _, err := cg.Scaled(".X", f); err == nil {
			t.Errorf("factor %v accepted", f)
		}
	}
}

// baselineMI is LLC misses per instruction when a runs alone with an LLC
// of llcBytes: the Table III "baseline memory intensity".
func baselineMI(a App, llcBytes float64) float64 {
	return a.LLCAccessRate * a.MRC.Ratio(llcBytes)
}
