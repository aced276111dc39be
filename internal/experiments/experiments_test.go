package experiments

import (
	"strings"
	"sync"
	"testing"
)

// shared memoises one suite computation across the package's tests.
type shared[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (s *shared[T]) get(t testing.TB, f func() (T, error)) T {
	t.Helper()
	s.once.Do(func() { s.val, s.err = f() })
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s.val
}

// The suite collects full Table V datasets; share one across tests with a
// reduced partition count so the package tests stay fast, and share each
// registry entry's output on it.
var (
	suiteMemo  shared[*Suite]
	outputMemo = map[string]*shared[*Output]{}
)

func init() {
	for _, e := range Registry() {
		outputMemo[e.ID] = new(shared[*Output])
	}
}

func testSuite(t testing.TB) *Suite {
	t.Helper()
	return suiteMemo.get(t, func() (*Suite, error) {
		return NewSuite(Config{Partitions: 5, Seed: 42, NoiseSigma: 0.01})
	})
}

// output is the registry entry id's output on the shared suite.
func output(t testing.TB, id string) *Output {
	t.Helper()
	for _, e := range Registry() {
		if e.ID == id {
			return outputMemo[id].get(t, func() (*Output, error) { return e.Compute(testSuite(t)) })
		}
	}
	t.Fatalf("no experiment %q", id)
	return nil
}

func TestNewSuiteValidation(t *testing.T) {
	if _, err := NewSuite(Config{Partitions: 0}); err == nil {
		t.Fatal("zero partitions accepted")
	}
}

func TestStaticTables(t *testing.T) {
	t1 := Table1()
	for _, want := range []string{"baseExTime", "targetCA/INS", "number of co-located"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
	t2 := Table2()
	for _, want := range []string{"A", "model E + targetCM/CA", "baseExTime"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
	t4 := Table4()
	for _, want := range []string{"Xeon E5649", "Xeon E5-2697v2", "12MB", "30MB", "1.60-2.53", "1.20-2.70"} {
		if !strings.Contains(t4, want) {
			t.Errorf("Table IV missing %q", want)
		}
	}
	t5 := Table5()
	for _, want := range []string{"cg,sp,fluidanimate,ep", "[1 2 3 4 5]", "[1 2 3 5 7 9 11]"} {
		if !strings.Contains(t5, want) {
			t.Errorf("Table V missing %q", want)
		}
	}
}

func TestDatasetLookup(t *testing.T) {
	s := testSuite(t)
	if _, err := s.Dataset(6); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Dataset(12); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Dataset(8); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestTable3ClassStructure(t *testing.T) {
	s := testSuite(t)
	rows, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("got %d rows, want 11", len(rows))
	}
	// Classes appear in order and intensities decrease across class
	// boundaries.
	for i := 1; i < len(rows); i++ {
		if rows[i].Class < rows[i-1].Class {
			t.Fatal("rows not ordered by class")
		}
	}
	if out := renderTable3(rows); !strings.Contains(out, "canneal") {
		t.Fatal("render missing canneal")
	}
}

func TestTable6Shape(t *testing.T) {
	res := output(t, "table6").result.(*Table6Result)
	if len(res.Rows) != 11 {
		t.Fatalf("got %d rows, want 11 (k = 1..11)", len(res.Rows))
	}
	if res.BaselineSeconds <= 0 {
		t.Fatal("no baseline")
	}
	// Normalised execution time grows monotonically (allowing noise).
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Normalized < res.Rows[i-1].Normalized-0.03 {
			t.Fatalf("row %d normalised %v below previous %v",
				i, res.Rows[i].Normalized, res.Rows[i-1].Normalized)
		}
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Normalized < 1.15 || last.Normalized > 2.0 {
		t.Fatalf("k=11 normalised time %v outside plausible range", last.Normalized)
	}
	// Model F predictions land in the right ballpark.
	for _, r := range res.Rows {
		if r.NeuralFError > 15 || r.LinearFError > 30 {
			t.Fatalf("k=%d prediction errors implausible: linear %v NN %v",
				r.NumCG, r.LinearFError, r.NeuralFError)
		}
	}
	if out := renderTable6(res); !strings.Contains(out, "normalized") {
		t.Fatal("render missing header")
	}
}

func TestFiguresShape(t *testing.T) {
	s := testSuite(t)
	for n := 1; n <= 4; n++ {
		f, err := s.Figure(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Points) != 12 {
			t.Fatalf("figure %d has %d points, want 12", n, len(f.Points))
		}
		for _, p := range f.Points {
			if p.TestError <= 0 || p.TrainError <= 0 {
				t.Fatalf("figure %d model %s has non-positive error", n, p.Model)
			}
		}
		if out := renderFigure(f); !strings.Contains(out, "neural-net-F") {
			t.Fatalf("figure %d render incomplete", n)
		}
	}
	if _, err := s.Figure(9); err == nil {
		t.Fatal("figure 9 accepted")
	}
}

func TestFigure1HeadlineOrdering(t *testing.T) {
	s := testSuite(t)
	f, err := s.Figure(1)
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[string]FigurePoint{}
	for _, p := range f.Points {
		byModel[p.Model] = p
	}
	// The paper's headline: NN-F is the most accurate model, and the NN
	// improves substantially from A to F.
	nnF := byModel["neural-net-F"].TestError
	for name, p := range byModel {
		if name != "neural-net-F" && p.TestError < nnF {
			t.Fatalf("%s (%v) beats NN-F (%v)", name, p.TestError, nnF)
		}
	}
	if nnF > 0.75*byModel["neural-net-A"].TestError {
		t.Fatalf("NN A→F improvement too small: %v -> %v",
			byModel["neural-net-A"].TestError, nnF)
	}
}

func TestFigure5a(t *testing.T) {
	s := testSuite(t)
	rows, err := s.Figure5a()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("got %d rows, want 11", len(rows))
	}
	for _, r := range rows {
		if r.Summary.Min <= 0 || r.Summary.Max < r.Summary.Min {
			t.Fatalf("%s summary degenerate: %+v", r.App, r.Summary)
		}
		// Co-location stretches times: max must exceed min.
		if r.Summary.Max <= r.Summary.Min {
			t.Fatalf("%s has no execution-time spread", r.App)
		}
	}
	if out := renderFigure5a(rows); !strings.Contains(out, "median") {
		t.Fatal("render missing header")
	}
}

func TestFigure5bAccuracyClaims(t *testing.T) {
	res := output(t, "figure5b").result.(*Figure5bResult)
	if len(res.Rows) != 11 {
		t.Fatalf("got %d rows, want 11", len(res.Rows))
	}
	// The paper: the majority of predictions within ±2 %, nearly all
	// within ±5 %.
	if res.Within2 < 0.5 {
		t.Fatalf("only %.0f%% of NN-F predictions within ±2%%", 100*res.Within2)
	}
	if res.Within5 < 0.9 {
		t.Fatalf("only %.0f%% of NN-F predictions within ±5%%", 100*res.Within5)
	}
	// Median error near zero for each application.
	for _, r := range res.Rows {
		if r.Summary.Median > 4 || r.Summary.Median < -4 {
			t.Fatalf("%s median error %v far from zero", r.App, r.Summary.Median)
		}
	}
	if out := renderFigure5b(res); !strings.Contains(out, "overall") {
		t.Fatal("render missing overall line")
	}
}

func TestPCARanking(t *testing.T) {
	rows := output(t, "pca").result.([]PCARankRow)
	if len(rows) != 8 {
		t.Fatalf("got %d features, want 8", len(rows))
	}
	sum := 0.0
	for i, r := range rows {
		sum += r.Score
		if i > 0 && r.Score > rows[i-1].Score+1e-12 {
			t.Fatal("ranking not descending")
		}
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("scores sum to %v", sum)
	}
	if out := renderPCARanking(rows); !strings.Contains(out, "rank") {
		t.Fatal("render missing header")
	}
}

func TestGeneralization(t *testing.T) {
	s := testSuite(t)
	cases, err := s.Generalization()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 3 {
		t.Fatalf("got %d families, want 3", len(cases))
	}
	for _, c := range cases {
		if c.Scenarios == 0 {
			t.Fatalf("family %s has no scenarios", c.Family)
		}
		// The Section IV-B3 claim: out-of-sample predictions stay
		// usable. Interpolation (gaps) should be tight; extrapolation to
		// unseen and mixed co-runners may be looser but must remain far
		// better than ignoring co-location entirely (model-A territory
		// is ~5% on in-sample data; allow up to 12% out of sample).
		limit := 6.0
		if c.Family != "gap" {
			limit = 12.0
		}
		if c.MPE > limit {
			t.Errorf("family %s MPE %.2f%% exceeds %.0f%%", c.Family, c.MPE, limit)
		}
	}
	if out := renderGeneralization(cases); !strings.Contains(out, "unseen") {
		t.Fatal("render incomplete")
	}
}

// Every figure, and the Table VI sweep, draws an SVG from its registry
// entry's output.
func TestSVGRenderers(t *testing.T) {
	for id, wants := range map[string][]string{
		"figure1":  {"neural test", "linear train"},
		"figure5a": {"canneal"},
		"figure5b": {"percent error"},
		"table6":   {"normalised"},
	} {
		out := output(t, id)
		if out.SVG == nil {
			t.Fatalf("%s draws no SVG", id)
		}
		svg, err := out.SVG()
		if err != nil {
			t.Fatalf("%s SVG: %v", id, err)
		}
		for _, want := range append(wants, "<svg") {
			if !strings.Contains(svg, want) {
				t.Errorf("%s SVG missing %q", id, want)
			}
		}
	}
}

func TestInteractionAblation(t *testing.T) {
	s := testSuite(t)
	rows, err := s.InteractionAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	byModel := map[string]float64{}
	for _, r := range rows {
		if r.TestMPE <= 0 {
			t.Fatalf("%s has non-positive MPE", r.Model)
		}
		byModel[r.Model] = r.TestMPE
	}
	// The crafted interactions must recover part of the linear/NN gap...
	if byModel["linear-F+x"] >= byModel["linear-F"] {
		t.Fatalf("interactions did not help: %v vs %v", byModel["linear-F+x"], byModel["linear-F"])
	}
	// ...while the NN retains an edge from the saturating nonlinearities.
	if byModel["neural-net-F"] >= byModel["linear-F"] {
		t.Fatalf("NN-F (%v) not better than linear-F (%v)", byModel["neural-net-F"], byModel["linear-F"])
	}
	if out := renderInteractionAblation(rows); !strings.Contains(out, "linear-F+x") {
		t.Fatal("render incomplete")
	}
}

func TestFeatureCorrelations(t *testing.T) {
	s := testSuite(t)
	m, err := s.FeatureCorrelations()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 8 {
		t.Fatalf("matrix has %d rows, want 8", len(m))
	}
	for i := range m {
		if m[i][i] != 1 {
			t.Fatal("diagonal not 1")
		}
	}
	// The documented redundancy: the three co-app features are nearly
	// collinear for homogeneous co-runners. coAppMem=2, coAppCMCA=4,
	// coAppCAINS=5 in Table I order.
	if m[2][4] < 0.7 || m[2][5] < 0.7 {
		t.Fatalf("co-app features not strongly correlated: %v, %v", m[2][4], m[2][5])
	}
	if out := renderFeatureCorrelations(m); !strings.Contains(out, "coAppMem") {
		t.Fatal("render incomplete")
	}
}

func TestMicrobenchmarkTransfer(t *testing.T) {
	s := testSuite(t)
	rows, err := s.MicrobenchmarkTransfer()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d kernels", len(rows))
	}
	byKernel := map[string]MicroTransferRow{}
	for _, r := range rows {
		if r.Scenarios != 12 {
			t.Fatalf("%s evaluated %d scenarios", r.Kernel, r.Scenarios)
		}
		// CPU-bound kernels barely slow down; measurement noise can push
		// the mean marginally below 1.
		if r.MeanSlowdown < 0.97 {
			t.Fatalf("%s mean slowdown %v implausibly low", r.Kernel, r.MeanSlowdown)
		}
		byKernel[r.Kernel] = r
	}
	// Kernels inside the training envelope (behaviour resembling the
	// scientific workloads) must transfer well...
	for _, k := range []string{"dgemm", "ministencil"} {
		if byKernel[k].MPE > 15 {
			t.Errorf("%s transfer MPE %.2f%% exceeds 15%%", k, byKernel[k].MPE)
		}
	}
	// ...while the deliberately extreme kernels sit outside it: the
	// experiment's value is *mapping the validity boundary*, so assert the
	// boundary exists (extremes predict worse than the in-envelope
	// kernels) rather than demanding the impossible.
	for _, k := range []string{"pchase", "stream"} {
		if byKernel[k].MPE <= byKernel["ministencil"].MPE {
			t.Errorf("%s (MPE %.2f%%) unexpectedly transfers better than ministencil (%.2f%%)",
				k, byKernel[k].MPE, byKernel["ministencil"].MPE)
		}
	}
	if out := renderMicrobenchmarkTransfer(rows); !strings.Contains(out, "pchase") {
		t.Fatal("render incomplete")
	}
}

func TestPhaseSensitivity(t *testing.T) {
	s := testSuite(t)
	rows, err := s.PhaseSensitivity([]float64{0, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.TestMPE <= 0 || r.TestMPE > 20 {
			t.Fatalf("scale %vx: MPE %v implausible", r.Scale, r.TestMPE)
		}
	}
	// The paper's claim: run-averaged features survive phase behaviour.
	// Strongly phased applications (5x amplitude) may cost some accuracy
	// but must not break the model (error stays within 2.5x the
	// phase-free error and under 5%).
	if rows[2].TestMPE > 2.5*rows[0].TestMPE || rows[2].TestMPE > 5 {
		t.Fatalf("phases break the model: %.2f%% (0x) -> %.2f%% (5x)",
			rows[0].TestMPE, rows[2].TestMPE)
	}
	if out := renderPhaseSensitivity(rows); !strings.Contains(out, "amplitude") {
		t.Fatal("render incomplete")
	}
}

func TestMixedTraining(t *testing.T) {
	s := testSuite(t)
	rows, err := s.MixedTraining(80)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d variants", len(rows))
	}
	byVariant := map[string]MixedTrainingRow{}
	for _, r := range rows {
		if r.TestMPE <= 0 || r.TestMPE > 30 {
			t.Fatalf("%s MPE %v implausible", r.Variant, r.TestMPE)
		}
		if r.TrainSize == 0 {
			t.Fatalf("%s trained on nothing", r.Variant)
		}
		key := r.Variant
		if strings.HasPrefix(key, "augmented") {
			key = "augmented"
		}
		byVariant[key] = r
	}
	// Augmenting the uniform homogeneous campaign with mixed samples must
	// not hurt mixed-scenario accuracy (and typically helps).
	if byVariant["augmented"].TestMPE > byVariant["homogeneous (Table V)"].TestMPE*1.25 {
		t.Fatalf("augmentation hurt: %.2f%% -> %.2f%%",
			byVariant["homogeneous (Table V)"].TestMPE, byVariant["augmented"].TestMPE)
	}
	if out := renderMixedTraining(rows); !strings.Contains(out, "augmented") {
		t.Fatal("render incomplete")
	}
}

func TestProblemSizeScaling(t *testing.T) {
	s := testSuite(t)
	rows, err := s.ProblemSizeScaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d factors", len(rows))
	}
	byFactor := map[float64]ScalingRow{}
	for _, r := range rows {
		if r.Scenarios != 24 {
			t.Fatalf("factor %gx: %d scenarios", r.Factor, r.Scenarios)
		}
		byFactor[r.Factor] = r
	}
	// 2x targets keep their baselines inside the training envelope and
	// must transfer well; 0.5x and 4x push baseExTime outside the span of
	// the training data, so accuracy degrades — they must stay bounded
	// (the model does not blow up) but are expected to be worse.
	if byFactor[2].MPE > 10 {
		t.Errorf("2x transfer MPE %.2f%% exceeds 10%%", byFactor[2].MPE)
	}
	for _, f := range []float64{0.5, 4} {
		if byFactor[f].MPE > 40 {
			t.Errorf("%gx transfer MPE %.2f%% exceeds 40%%", f, byFactor[f].MPE)
		}
	}
	if out := renderProblemSizeScaling(rows); !strings.Contains(out, "work factor") {
		t.Fatal("render incomplete")
	}
}
