// Benchmark harness: a benchmark for each table and figure of the paper's
// evaluation section (Figures 1–4 share BenchmarkEvaluateAll, whose one
// evaluation per machine yields both its MPE and its NRMSE figure),
// ablation benchmarks for the design choices DESIGN.md calls out
// (analytical engine vs. trace-driven LRU cache), and the in-process
// handler controls ServePredict and ObservationIngest. A quantity the
// repository benchmark (bench/) already reports per layer — one
// predict, save/load, dataset collection — has no benchmark here.
//
// Dataset collection and other one-time setup run outside the timed
// region; each benchmark iteration regenerates its table or figure from
// the cached dataset. Figures 1–4 use a reduced partition count so the
// full suite stays tractable; cmd/coloexp runs the paper's full 100.
package colocmodel_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"colocmodel"
	"colocmodel/internal/core"
	"colocmodel/internal/experiments"
	"colocmodel/internal/features"
	"colocmodel/internal/feedback"
	"colocmodel/internal/linalg"
	"colocmodel/internal/mlp"
	"colocmodel/internal/serve"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
	"colocmodel/internal/xrand"
)

const benchPartitions = 5

var (
	suiteOnce sync.Once
	suiteVal  *experiments.Suite
	suiteErr  error
)

// benchSuite collects both Table V datasets exactly once per process.
func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = experiments.NewSuite(experiments.Config{Partitions: benchPartitions, Seed: 42, NoiseSigma: 0.01})
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteVal
}

// ---- Tables ----

func BenchmarkTable1Features(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Table1(); out == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2FeatureSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Table2(); out == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3Baselines measures the baseline campaign behind Table
// III: every application run alone at P0 on the 6-core machine.
func BenchmarkTable3Baselines(b *testing.B) {
	proc, err := simproc.New(simproc.XeonE5649())
	if err != nil {
		b.Fatal(err)
	}
	apps := workload.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range apps {
			if _, err := proc.RunBaseline(a, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable4Machines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Table4(); out == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable5TrainingSetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Table5(); out == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable6CannealCG regenerates Table VI: the canneal-vs-cg sweep
// on the 12-core machine with linear-F and NN-F prediction error.
func BenchmarkTable6CannealCG(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Table6()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 11 {
			b.Fatalf("got %d rows", len(res.Rows))
		}
	}
}

// ---- Figures ----

// BenchmarkEvaluateAll regenerates Figures 1–4: the full twelve-model
// repeated-random-subsampling evaluation on each machine's dataset. One
// evaluation yields both the MPE and the NRMSE figure of its machine
// (Figures 1 and 3 on the 6-core, 2 and 4 on the 12-core).
func BenchmarkEvaluateAll(b *testing.B) {
	s := benchSuite(b)
	for _, cores := range []int{6, 12} {
		ds, err := s.Dataset(cores)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%dcore", cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.EvaluateAll(ds, core.EvalConfig{Partitions: benchPartitions, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != 12 {
					b.Fatalf("got %d models", len(res))
				}
			}
		})
	}
}

func BenchmarkFigure5aDistributions(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure5a()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 11 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

func BenchmarkFigure5bErrorDistributions(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Figure5b()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 11 {
			b.Fatalf("got %d rows", len(res.Rows))
		}
	}
}

// BenchmarkPCAFeatureRanking measures the Section III-B feature-ranking
// step.
func BenchmarkPCAFeatureRanking(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.PCARanking()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatalf("got %d features", len(rows))
		}
	}
}

// ---- Ablations ----

// ablationTrainingData is the standardised NN-F training task on the
// 6-core dataset that BenchmarkAblationSCGTraining trains on with the
// paper's scaled-conjugate-gradient trainer.
func ablationTrainingData(b *testing.B) (*linalg.Matrix, []float64) {
	b.Helper()
	s := benchSuite(b)
	ds, err := s.Dataset(6)
	if err != nil {
		b.Fatal(err)
	}
	setF, err := features.SetByName("F")
	if err != nil {
		b.Fatal(err)
	}
	x, y, err := features.Matrix(setF, ds, ds.Records)
	if err != nil {
		b.Fatal(err)
	}
	xs := features.FitScaler(x)
	xt, err := xs.Transform(x)
	if err != nil {
		b.Fatal(err)
	}
	return xt, features.FitVecScaler(y).Transform(y)
}

func BenchmarkAblationSCGTraining(b *testing.B) {
	x, y := ablationTrainingData(b)
	ws := mlp.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := mlp.New(mlp.Config{Inputs: x.Cols, Hidden: 20, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mlp.TrainSCGWS(net, x, y, mlp.SCGConfig{MaxIter: 200}, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAnalyticalEngine vs BenchmarkAblationTraceDriven
// compare the cost of the epoch-analytical co-location engine against the
// trace-driven shared-cache path (RunTraceDriven, 200 000 references a
// pass) for the same cg + ep scenario.
func BenchmarkAblationAnalyticalEngine(b *testing.B) {
	proc, err := simproc.New(simproc.XeonE5649())
	if err != nil {
		b.Fatal(err)
	}
	cg, err := workload.ByName("cg")
	if err != nil {
		b.Fatal(err)
	}
	ep, err := workload.ByName("ep")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proc.RunColocation(cg, []workload.App{ep}, 0, simproc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTraceDriven(b *testing.B) {
	proc, err := simproc.New(simproc.XeonE5649())
	if err != nil {
		b.Fatal(err)
	}
	cg, err := workload.ByName("cg")
	if err != nil {
		b.Fatal(err)
	}
	ep, err := workload.ByName("ep")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proc.RunTraceDriven(cg, []workload.App{ep}, 0, 200000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Extension experiments ----

// BenchmarkGeneralization measures the Section IV-B3 out-of-sample
// generalisation experiment (train NN-F, evaluate gap/unseen/mixed
// scenario families).
func BenchmarkGeneralization(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cases, err := s.Generalization()
		if err != nil {
			b.Fatal(err)
		}
		if len(cases) != 3 {
			b.Fatalf("got %d families", len(cases))
		}
	}
}

// BenchmarkMicrobenchmarkTransfer measures the validity-boundary
// experiment on the four constructed kernels.
func BenchmarkMicrobenchmarkTransfer(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.MicrobenchmarkTransfer()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("got %d kernels", len(rows))
		}
	}
}

// BenchmarkInteractionAblation measures the linear-with-interactions
// ablation.
func BenchmarkInteractionAblation(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.InteractionAblation()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// benchWriter is the minimal http.ResponseWriter: status, headers and
// body bytes, reused from call to call so the harness contributes no
// allocations to what BenchmarkServePredict reports.
type benchWriter struct {
	hdr    http.Header
	status int
	buf    []byte
}

func (w *benchWriter) Header() http.Header { return w.hdr }

func (w *benchWriter) WriteHeader(status int) { w.status = status }

func (w *benchWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// BenchmarkServePredict measures the serving path of the inference
// tier through the in-process handler with a reused request and a
// minimal writer, so ns/op and allocs/op are the handler's own: one
// POST /v1/predict (decode, validate, feature extraction + NN forward
// pass, encode) traced and untraced, and 64-row POST /v1/predict/batch
// two ways: batch64 (one body) is the control, and batch64-wide the
// repository benchmark's traffic — 2 048 distinct bodies walked in
// order, so no row comes round again before 131 071 others have.
func BenchmarkServePredict(b *testing.B) {
	s := benchSuite(b)
	ds, err := s.Dataset(6)
	if err != nil {
		b.Fatal(err)
	}
	setF, err := features.SetByName("F")
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Train(core.Spec{Technique: core.NeuralNet, FeatureSet: setF, Seed: 1}, ds, ds.Records)
	if err != nil {
		b.Fatal(err)
	}
	single := []byte(`{"target":"canneal","co_apps":["cg","cg","cg"],"pstate":0}`)
	var batch64 []byte
	{
		apps := m.Apps()
		req := serve.BatchRequest{Scenarios: make([]serve.ScenarioRequest, 64)}
		for i := range req.Scenarios {
			req.Scenarios[i] = serve.ScenarioRequest{
				Target: apps[i%len(apps)],
				CoApps: []string{apps[(i/2)%len(apps)], apps[(i/3)%len(apps)], apps[(i/5)%len(apps)]}[:1+i%3],
				PState: i % m.PStates(),
			}
		}
		if batch64, err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
	// The wide population of bench/ops.go (which cannot be imported):
	// target × P-state × a uniformly drawn multiset of 0–5 co-runners,
	// every scenario distinct across all bodies.
	wide := make([][]byte, 2048)
	{
		src := xrand.New(0x77696465)
		apps := m.Apps()
		seen := make(map[string]struct{}, len(wide)*64)
		for i := range wide {
			req := serve.BatchRequest{Scenarios: make([]serve.ScenarioRequest, 0, 64)}
			for len(req.Scenarios) < 64 {
				sr := serve.ScenarioRequest{
					Target: apps[src.Intn(len(apps))],
					PState: src.Intn(m.PStates()),
					CoApps: make([]string, src.Intn(6)),
				}
				for j := range sr.CoApps {
					sr.CoApps[j] = apps[src.Intn(len(apps))]
				}
				key := serve.CanonicalScenario(features.Scenario{Target: sr.Target, CoApps: sr.CoApps, PState: sr.PState})
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				req.Scenarios = append(req.Scenarios, sr)
			}
			if wide[i], err = json.Marshal(req); err != nil {
				b.Fatal(err)
			}
		}
	}
	// One placement problem of the repository benchmark's shape
	// (bench/ops.go): 16 apps over four 6-core machines, beam 12, QoS 2.5.
	var placements []byte
	{
		apps := m.Apps()
		req := serve.PlacementsRequest{
			Machines:    []serve.PlacementMachineRequest{{Machine: "6core", Count: 4}},
			Apps:        make([]string, 16),
			MaxSlowdown: 2.5,
			Seed:        11,
			Beam:        12,
		}
		for i := range req.Apps {
			req.Apps[i] = apps[(i*i+3*i)%len(apps)]
		}
		if placements, err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
	// bench posts the bodies in order, round and round, after one
	// untimed pass over all of them.
	bench := func(b *testing.B, path string, traceRing int, bodies ...[]byte) {
		reg := serve.NewRegistry()
		if err := reg.Add("bench", "", m); err != nil {
			b.Fatal(err)
		}
		h := serve.New(reg, serve.Config{TraceRing: traceRing}).Handler()
		rd := bytes.NewReader(nil)
		req := httptest.NewRequest("POST", path, rd)
		req.Body = io.NopCloser(rd)
		w := &benchWriter{hdr: make(http.Header, 8)}
		post := func(body []byte) {
			rd.Reset(body)
			clear(w.hdr)
			w.status, w.buf = 0, w.buf[:0]
			h.ServeHTTP(w, req)
			if w.status != 200 {
				b.Fatalf("status %d: %s", w.status, w.buf)
			}
		}
		for _, body := range bodies {
			post(body)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(bodies[i%len(bodies)])
		}
	}
	b.Run("single", func(b *testing.B) { bench(b, "/v1/predict", 0, single) })
	// single-untraced disables the trace ring, isolating the tracing
	// overhead of the default path (budgeted at <5%).
	b.Run("single-untraced", func(b *testing.B) { bench(b, "/v1/predict", -1, single) })
	b.Run("batch64", func(b *testing.B) { bench(b, "/v1/predict/batch", 0, batch64) })
	b.Run("batch64-wide", func(b *testing.B) { bench(b, "/v1/predict/batch", 0, wide...) })
	b.Run("placements", func(b *testing.B) { bench(b, "/v1/placements", 0, placements) })
}

// BenchmarkObservationIngest measures the observation-log write path
// at 64 concurrent writers: the group-commit pipeline (writers park on
// a commit queue; one committer issues a coalesced write and a single
// fsync per cohort) against the direct per-append-fsync baseline it
// replaced — kept in the code as ObservationLogConfig.Direct, so the
// speedup stays measurable. Both variants run Sync (real fsyncs): the
// amortised durability cost is the whole point.
func BenchmarkObservationIngest(b *testing.B) {
	o := feedback.Observation{
		Model:            "bench",
		Target:           "canneal",
		CoApps:           []string{"cg", "cg"},
		PredictedSeconds: 10,
		MeasuredSeconds:  11,
	}
	const writers = 64
	bench := func(b *testing.B, direct bool) {
		log, err := colocmodel.OpenObservationLog(colocmodel.ObservationLogConfig{
			Dir: b.TempDir(), Sync: true, Direct: direct,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		b.ReportAllocs()
		b.SetParallelism((writers + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := log.AppendBatch([]feedback.Observation{o}); err != nil {
					b.Error(err)
					return
				}
			}
		})
	}
	b.Run("direct-fsync", func(b *testing.B) { bench(b, true) })
	b.Run("group-commit", func(b *testing.B) { bench(b, false) })
}
