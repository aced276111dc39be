// Command coloload is the load generator and soak harness for the
// serve tier. It drives a running coloserve instance (or, with -demo, a
// hermetic in-process server) with a Zipf-skewed scenario mix sampled
// from the served model's app/P-state space, reports latency quantiles,
// throughput and error rates, and gates the run against SLOs — the exit
// status is the verdict, so it slots directly into CI.
//
// Usage:
//
//	colotrain -machine 6core -savemodel model6.json
//	coloserve -model model6.json &
//	coloload -url http://localhost:8080 -mode closed -c 16 -duration 30s \
//	         -warmup 5s -max-p99 50ms -max-err-rate 0
//
//	coloload -mode open -rate 500 -duration 1m -url http://localhost:8080
//
//	coloload -demo -requests 5000 -json BENCH_soak.json   # no server needed
//
// The scenario space is discovered from GET /v1/models (the default
// model's apps and P-state count); -maxco bounds the co-runner
// multiplicity of generated scenarios. The op mix blends single
// predictions, batch predictions, observation ingests, model reloads
// and placement-optimizer searches via the -*-weight flags, or starts
// from a named -mix preset (predict, mixed, ingest) with explicit
// weight flags overriding the preset; observation and reload traffic
// requires a server running with -adapt and disk-backed models
// respectively. In demo mode -obs-disk backs the observation log with
// a real on-disk group-commit log (fsync per commit) instead of the
// memory store, so ingest soaks exercise the durable write path.
//
// With -json the full report is written as a benchmark artifact
// ({"bench", "pass", "violations", "report"}) for trend tracking.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"colocmodel/internal/cluster"
	"colocmodel/internal/core"
	"colocmodel/internal/drift"
	"colocmodel/internal/features"
	"colocmodel/internal/feedback"
	"colocmodel/internal/fleetobs"
	"colocmodel/internal/harness"
	"colocmodel/internal/loadgen"
	"colocmodel/internal/obs"
	"colocmodel/internal/serve"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

// options carries every flag so tests can drive run() directly.
type options struct {
	url      string
	demo     bool
	mode     string
	rate     float64
	conc     int
	duration time.Duration
	warmup   time.Duration
	requests int
	seed     uint64
	checkGen bool

	zipf            float64
	maxCo           int
	predictWeight   float64
	batchWeight     float64
	observeWeight   float64
	reloadWeight    float64
	placementWeight float64
	batchSize       int
	obsDisk         bool

	clusterN int
	replicas int

	slo       loadgen.SLO
	jsonPath  string
	jsonMerge bool
	name      string
}

func main() {
	var o options
	flag.StringVar(&o.url, "url", "http://localhost:8080", "base URL of the coloserve instance under test")
	flag.BoolVar(&o.demo, "demo", false, "hermetic mode: train a small model and soak an in-process server (ignores -url)")
	flag.StringVar(&o.mode, "mode", "closed", "driving mode: closed (fixed concurrency) or open (fixed arrival rate)")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop arrival rate in requests/second")
	flag.IntVar(&o.conc, "c", 8, "worker concurrency")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "run length")
	flag.DurationVar(&o.warmup, "warmup", 0, "initial stretch excluded from the report")
	flag.IntVar(&o.requests, "requests", 0, "stop after this many requests (0 = duration-bound)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for scenario sampling and the op mix")
	flag.BoolVar(&o.checkGen, "check-generations", true, "verify the serving generation never moves backwards per worker")

	flag.Float64Var(&o.zipf, "zipf", 1.1, "Zipf skew of the scenario popularity (0 = uniform)")
	flag.IntVar(&o.maxCo, "maxco", 3, "largest co-runner multiplicity in generated scenarios")
	flag.Float64Var(&o.predictWeight, "predict-weight", 1, "relative frequency of POST /v1/predict")
	flag.Float64Var(&o.batchWeight, "batch-weight", 0, "relative frequency of POST /v1/predict/batch")
	flag.Float64Var(&o.observeWeight, "observe-weight", 0, "relative frequency of POST /v1/observations (needs -adapt on the server)")
	flag.Float64Var(&o.reloadWeight, "reload-weight", 0, "relative frequency of POST /v1/models/reload (needs disk-backed models)")
	flag.Float64Var(&o.placementWeight, "placement-weight", 0, "relative frequency of POST /v1/placements (seeded optimizer searches)")
	flag.IntVar(&o.batchSize, "batch-size", 16, "scenarios per batch request")
	mixPreset := flag.String("mix", "", "traffic preset: predict, mixed, or ingest (~80% observations); explicit weight flags override")
	flag.BoolVar(&o.obsDisk, "obs-disk", false, "demo/cluster mode: back the observation log with an on-disk group-commit log (fsync per commit)")

	flag.IntVar(&o.clusterN, "cluster", 0, "hermetic cluster mode: soak this many in-process replicas behind a colorouter gateway (ignores -url)")
	flag.IntVar(&o.replicas, "replicas", 2, "cluster mode: replica-set size per scenario key")

	flag.DurationVar(&o.slo.MaxP50, "max-p50", 0, "SLO: p50 latency bound (0 = unchecked)")
	flag.DurationVar(&o.slo.MaxP95, "max-p95", 0, "SLO: p95 latency bound (0 = unchecked)")
	flag.DurationVar(&o.slo.MaxP99, "max-p99", 0, "SLO: p99 latency bound (0 = unchecked)")
	flag.DurationVar(&o.slo.MaxP999, "max-p999", 0, "SLO: p99.9 latency bound (0 = unchecked)")
	flag.Float64Var(&o.slo.MaxErrorRate, "max-err-rate", -1, "SLO: error-rate bound in [0,1] (negative = unchecked, 0 = no errors allowed)")
	flag.Float64Var(&o.slo.MinThroughput, "min-throughput", 0, "SLO: measured req/s floor (0 = unchecked)")
	flag.StringVar(&o.jsonPath, "json", "", "write the report as a benchmark artifact to this path")
	flag.BoolVar(&o.jsonMerge, "json-merge", false, "merge the artifact into -json as a trajectory array (replace same-name entry, keep others)")
	flag.StringVar(&o.name, "name", "coloload", "benchmark name recorded in the artifact")
	flag.Parse()

	if *mixPreset != "" {
		preset, err := loadgen.MixPreset(*mixPreset)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coloload:", err)
			os.Exit(1)
		}
		// The preset seeds the weights; any weight flag the user set
		// explicitly wins over it.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["predict-weight"] {
			o.predictWeight = preset.PredictWeight
		}
		if !set["batch-weight"] {
			o.batchWeight = preset.BatchWeight
		}
		if !set["observe-weight"] {
			o.observeWeight = preset.ObserveWeight
		}
		if !set["reload-weight"] {
			o.reloadWeight = preset.ReloadWeight
		}
		if !set["placement-weight"] {
			o.placementWeight = preset.PlacementWeight
		}
		if !set["batch-size"] && preset.BatchSize > 0 {
			o.batchSize = preset.BatchSize
		}
	}

	pass, err := run(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coloload:", err)
		os.Exit(1)
	}
	if !pass {
		os.Exit(1)
	}
}

// run executes one load run and returns the gate verdict.
func run(w io.Writer, o options) (bool, error) {
	cfg := loadgen.Config{
		Concurrency: o.conc,
		Duration:    o.duration,
		Requests:    o.requests,
		Warmup:      o.warmup,
		Seed:        o.seed,
		Mix: loadgen.Mix{
			ZipfSkew:        o.zipf,
			PredictWeight:   o.predictWeight,
			BatchWeight:     o.batchWeight,
			ObserveWeight:   o.observeWeight,
			ReloadWeight:    o.reloadWeight,
			PlacementWeight: o.placementWeight,
			BatchSize:       o.batchSize,
		},
		CheckGenerations: o.checkGen,
	}
	switch o.mode {
	case "closed":
		cfg.Mode = loadgen.ClosedLoop
	case "open":
		cfg.Mode = loadgen.OpenLoop
		cfg.Rate = o.rate
	default:
		return false, fmt.Errorf("unknown -mode %q (want closed or open)", o.mode)
	}

	var (
		doer  loadgen.Doer
		space *loadgen.Space
		ct    *loadgen.ClusterTarget
		err   error
	)
	obsDir := ""
	if o.obsDisk {
		if obsDir, err = os.MkdirTemp("", "coloload-obslog-"); err != nil {
			return false, err
		}
		defer os.RemoveAll(obsDir)
		fmt.Fprintf(w, "obslog: disk-backed group-commit log in %s (fsync per commit)\n", obsDir)
	}
	switch {
	case o.clusterN > 0:
		ct, space, err = clusterTarget(o.clusterN, o.replicas, o.maxCo, obsDir)
		if err != nil {
			return false, err
		}
		defer ct.Close()
		doer = ct.Doer()
		fmt.Fprintf(w, "cluster: %d replicas behind colorouter (replica sets of %d)\n", o.clusterN, o.replicas)
	case o.demo:
		doer, space, err = demoTarget(o.maxCo, obsDir)
	default:
		doer = loadgen.NewHTTPDoer(o.url)
		space, err = discoverSpace(o.url, o.maxCo)
	}
	if err != nil {
		return false, err
	}

	fmt.Fprintf(w, "coloload: %s, %d workers, %v (%d scenarios, zipf %.2f, seed %d)\n",
		cfg.Mode, cfg.Concurrency, o.duration, space.Size(), o.zipf, o.seed)
	rep, err := loadgen.Run(cfg, doer, space)
	if err != nil {
		return false, err
	}
	violations := rep.Gate(o.slo)
	if ct != nil {
		// Post-soak fleet health: the router's own burn-rate verdict and
		// merged telemetry gate the run alongside the measured SLOs — a
		// "page" state means the fleet itself judged the soak unhealthy.
		fv, err := fleetHealth(w, ct)
		if err != nil {
			return false, err
		}
		violations = append(violations, fv...)
	}
	printReport(w, rep, violations)

	if o.jsonPath != "" {
		art := loadgen.BenchArtifact{
			Bench:      o.name,
			Pass:       len(violations) == 0,
			Violations: violations,
			Report:     rep,
		}
		if o.jsonMerge {
			if _, err := loadgen.MergeArtifact(o.jsonPath, art); err != nil {
				return false, err
			}
		} else {
			raw, err := json.MarshalIndent(art, "", "  ")
			if err != nil {
				return false, err
			}
			if err := os.WriteFile(o.jsonPath, append(raw, '\n'), 0o644); err != nil {
				return false, err
			}
		}
		fmt.Fprintf(w, "wrote %s\n", o.jsonPath)
	}
	return len(violations) == 0, nil
}

// printReport renders the human-readable summary.
func printReport(w io.Writer, r *loadgen.Report, violations []string) {
	ms := func(s float64) string { return fmt.Sprintf("%.3fms", s*1e3) }
	fmt.Fprintf(w, "requests  %d measured (%d warmup) in %.2fs\n",
		r.Requests, r.WarmupRequests, r.DurationSeconds)
	fmt.Fprintf(w, "throughput  %.1f req/s\n", r.ThroughputPerSec)
	fmt.Fprintf(w, "latency  p50 %s  p95 %s  p99 %s  p999 %s  mean %s  max %s\n",
		ms(r.Latency.P50), ms(r.Latency.P95), ms(r.Latency.P99),
		ms(r.Latency.P999), ms(r.Latency.Mean), ms(r.Latency.Max))
	fmt.Fprintf(w, "errors  %d (rate %.4f%%): 2xx=%d 4xx=%d 5xx=%d transport=%d\n",
		r.Errors, r.ErrorRate*100, r.Status2xx, r.Status4xx, r.Status5xx, r.TransportErrors)
	if r.GenerationRegressions > 0 {
		fmt.Fprintf(w, "generation regressions  %d (STALE MODELS SERVED)\n", r.GenerationRegressions)
	}
	ops := make([]string, 0, len(r.PerOp))
	for k := range r.PerOp {
		ops = append(ops, k)
	}
	sort.Strings(ops)
	fmt.Fprintf(w, "ops ")
	for _, k := range ops {
		fmt.Fprintf(w, " %s=%d", k, r.PerOp[k])
	}
	fmt.Fprintln(w)
	if len(r.ServerStages) > 0 {
		stages := make([]string, 0, len(r.ServerStages))
		for k := range r.ServerStages {
			stages = append(stages, k)
		}
		sort.Strings(stages)
		fmt.Fprintf(w, "server stages ")
		for _, k := range stages {
			ss := r.ServerStages[k]
			fmt.Fprintf(w, " %s=%s(n=%d)", k, ms(ss.MeanSeconds), ss.Count)
		}
		fmt.Fprintln(w)
	}
	if len(violations) == 0 {
		fmt.Fprintln(w, "SLO: PASS")
		return
	}
	fmt.Fprintln(w, "SLO: FAIL")
	for _, v := range violations {
		fmt.Fprintln(w, "  -", v)
	}
}

// discoverSpace reads GET /v1/models and builds the scenario space of
// the default model.
func discoverSpace(base string, maxCo int) (*loadgen.Space, error) {
	resp, err := http.Get(base + "/v1/models")
	if err != nil {
		return nil, fmt.Errorf("discovering models at %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/models returned %s", resp.Status)
	}
	var mr serve.ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return nil, fmt.Errorf("decoding /v1/models: %w", err)
	}
	if len(mr.Models) == 0 {
		return nil, fmt.Errorf("server registry is empty")
	}
	info := mr.Models[0]
	for _, m := range mr.Models {
		if m.Default {
			info = m
			break
		}
	}
	return loadgen.SpaceFromModel(info, maxCo)
}

// demoModel trains the small demo model on a simulated sweep and saves
// it to a temp artefact (so reload ops can re-read it from disk).
func demoModel() (string, *core.Model, error) {
	cg, _ := workload.ByName("cg")
	ep, _ := workload.ByName("ep")
	mg, _ := workload.ByName("mg")
	ds, err := harness.Collect(harness.Plan{
		Spec:       simproc.XeonE5649(),
		Targets:    []workload.App{cg, ep, mg},
		CoApps:     []workload.App{cg, ep},
		CoCounts:   []int{1, 2},
		PStates:    []int{0, 1},
		NoiseSigma: 0.01,
		Seed:       7,
	})
	if err != nil {
		return "", nil, fmt.Errorf("demo sweep: %w", err)
	}
	set, err := features.SetByName("F")
	if err != nil {
		return "", nil, err
	}
	m, err := core.Train(core.Spec{Technique: core.Linear, FeatureSet: set, Seed: 1}, ds, ds.Records)
	if err != nil {
		return "", nil, fmt.Errorf("demo training: %w", err)
	}
	dir, err := os.MkdirTemp("", "coloload-demo-")
	if err != nil {
		return "", nil, err
	}
	path := filepath.Join(dir, "demo.json")
	f, err := os.Create(path)
	if err != nil {
		return "", nil, err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return "", nil, err
	}
	if err := f.Close(); err != nil {
		return "", nil, err
	}
	return path, m, nil
}

// demoServer builds one in-process server over the demo artefact, with
// the adaptation loop attached (untrippable drift threshold) so
// observation ops work. A non-empty obsDir backs the observation log
// with the on-disk group-commit log, fsyncing every commit.
func demoServer(path string, m *core.Model, obsDir string) (*serve.Server, error) {
	reg := serve.NewRegistry()
	if err := reg.Add("demo", path, m); err != nil {
		return nil, err
	}
	srv := serve.New(reg, serve.Config{})
	log, err := feedback.Open(feedback.Config{Dir: obsDir, Sync: obsDir != ""})
	if err != nil {
		return nil, err
	}
	mon := drift.NewMonitor(drift.Config{Lambda: 1e18, MinSamples: 1 << 30})
	if err := srv.EnableAdaptation(serve.Adaptation{Log: log, Monitor: mon}); err != nil {
		return nil, err
	}
	return srv, nil
}

// demoTarget builds the hermetic single-node target: a small linear
// model trained on a simulated sweep, saved to a temp artefact so
// reload ops work, served with the adaptation loop attached (with an
// untrippable drift threshold) so observation ops work too.
func demoTarget(maxCo int, obsDir string) (loadgen.Doer, *loadgen.Space, error) {
	path, m, err := demoModel()
	if err != nil {
		return nil, nil, err
	}
	srv, err := demoServer(path, m, obsDir)
	if err != nil {
		return nil, nil, err
	}
	space, err := loadgen.SpaceFromModel(srv.Registry().List()[0], maxCo)
	if err != nil {
		return nil, nil, err
	}
	return &loadgen.HandlerDoer{Handler: srv.Handler()}, space, nil
}

// clusterTarget builds the hermetic cluster target: n in-process
// replicas of the demo server (each with its own registry, so rolling
// promotions bump generations independently) behind a colorouter
// gateway probing every 250ms.
func clusterTarget(n, replicas, maxCo int, obsDir string) (*loadgen.ClusterTarget, *loadgen.Space, error) {
	path, m, err := demoModel()
	if err != nil {
		return nil, nil, err
	}
	ct, err := loadgen.NewClusterTarget(context.Background(), cluster.Config{
		Replicas:      replicas,
		ProbeInterval: 250 * time.Millisecond,
	}, n, func(i int) (*serve.Server, error) {
		dir := obsDir
		if dir != "" {
			dir = filepath.Join(obsDir, fmt.Sprintf("replica-%d", i))
		}
		return demoServer(path, m, dir)
	})
	if err != nil {
		return nil, nil, err
	}
	space, err := loadgen.SpaceFromModel(ct.Servers[0].Registry().List()[0], maxCo)
	if err != nil {
		ct.Close()
		return nil, nil, err
	}
	return ct, space, nil
}

// fleetHealth scrapes the router's fleet-wide telemetry after a cluster
// soak: /v1/fleet/metrics must merge into a parseable Prometheus
// document, and a /v1/slo burn-rate state of "page" is a gate
// violation ("warn" is reported but passes — short soaks burn budget
// quickly by construction).
func fleetHealth(w io.Writer, ct *loadgen.ClusterTarget) ([]string, error) {
	h := ct.Router.Handler()
	get := func(path string) (*httptest.ResponseRecorder, error) {
		rec := httptest.NewRecorder()
		req, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			return nil, err
		}
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
		}
		return rec, nil
	}

	rec, err := get("/v1/fleet/metrics")
	if err != nil {
		return nil, err
	}
	doc, err := fleetobs.Parse(rec.Body)
	if err != nil {
		return nil, fmt.Errorf("fleet metrics document does not parse: %w", err)
	}
	req, _ := doc.SumSamples("coloserve_requests_total", "coloserve_requests_total")
	errs, _ := doc.SumSamples("coloserve_request_errors_total", "coloserve_request_errors_total")
	fmt.Fprintf(w, "fleet  %.0f backend requests merged, %.0f errors\n", req, errs)

	rec, err = get("/v1/slo")
	if err != nil {
		return nil, err
	}
	var st obs.SLOStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return nil, fmt.Errorf("decoding /v1/slo: %w", err)
	}
	fmt.Fprintf(w, "fleet SLO  state %s (objective %g, short burn %.2f, long burn %.2f)\n",
		st.State, st.Objective, st.Short.BurnRate, st.Long.BurnRate)
	if st.State == "page" {
		return []string{fmt.Sprintf("fleet SLO state page (short burn %.2f, long burn %.2f)", st.Short.BurnRate, st.Long.BurnRate)}, nil
	}
	return nil, nil
}
