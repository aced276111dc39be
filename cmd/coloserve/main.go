// Command coloserve is the online inference server: it loads one or
// more saved model artefacts into a named registry and serves
// predictions, batch predictions, and placement decisions over HTTP.
// With -adapt it also runs the online adaptation loop: deployment
// observations are logged durably, prediction residuals are watched
// for drift, and a tripped detector triggers gated background
// retraining with atomic promotion.
//
// Usage:
//
//	colotrain -machine 6core -savemodel model6.json     # produce an artefact
//	coloserve -model model6.json                        # serve it on :8080
//	coloserve -model m6=model6.json -model m12=model12.json -listen :9090
//	coloserve -model model6.json -adapt -obslog /var/lib/coloserve/obs \
//	          -dataset sweep6.csv                       # full adaptation loop
//
// Endpoints:
//
//	POST /v1/predict          one scenario → predicted time and slowdown
//	POST /v1/predict/batch    many scenarios, evaluated in one batched model call
//	POST /v1/schedule         jobs → interference-aware placement
//	POST /v1/placements       apps × fleet → optimised placement plan (optionally streamed)
//	GET  /v1/models           registry listing
//	POST /v1/models/reload    re-read artefacts from disk (atomic hot-swap)
//	POST /v1/observations     report measured runtimes (single or batch)
//	GET  /v1/drift            per-(model × target) residual drift report
//	POST /v1/retrain          trigger (or run, with {"wait":true}) retraining
//	GET  /v1/retrain/status   retraining attempt history
//	GET  /v1/version          build and API version info
//	GET  /v1/traces           recent retained traces (slow/error/retrain)
//	GET  /v1/slo              SLO burn-rate verdict (ok | warn | page)
//	GET  /healthz             liveness (?verbose=1 adds uptime, generations, build info)
//	GET  /metrics             Prometheus text metrics
//
// Observability: every request gets an X-Request-ID (client-supplied
// or generated), structured request logs go to stderr (-log-format),
// per-stage timings are traced into a bounded ring served at
// /v1/traces (-trace-ring, -slow-ms), and -pprof exposes
// net/http/pprof under /debug/pprof/.
//
// The server drains in-flight requests on SIGTERM/SIGINT before
// exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"colocmodel/internal/core"
	"colocmodel/internal/drift"
	"colocmodel/internal/feedback"
	"colocmodel/internal/harness"
	"colocmodel/internal/obs"
	"colocmodel/internal/retrain"
	"colocmodel/internal/serve"
)

func main() {
	var (
		listen  = flag.String("listen", ":8080", "address to serve on")
		timeout = flag.Duration("timeout", 10*time.Second, "per-request timeout (batch, schedule, placements, observations)")
		drain   = flag.Duration("drain", 15*time.Second, "shutdown drain budget for in-flight requests")

		pprofOn = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")

		adapt     = flag.Bool("adapt", false, "enable the online adaptation loop (observations, drift detection, gated retraining)")
		obslog    = flag.String("obslog", "", "directory for the durable observation log (empty = in-memory only)")
		dataset   = flag.String("dataset", "", "offline training sweep CSV to augment with observations when retraining (see colotrain -savecsv)")
		margin    = flag.Float64("retrain-margin", 0.25, "percentage points by which a retrained candidate's holdout MPE must beat the incumbent")
		lambda    = flag.Float64("drift-lambda", 50, "Page-Hinkley trip threshold on the residual stream")
		minObs    = flag.Int("retrain-min-obs", 30, "fewest logged observations before a retraining attempt will run")
		obsCommit = flag.Duration("obs-commit-interval", 0, "group-commit hold window for observation ingest (0 = commit whatever is queued immediately)")
		obsQueue  = flag.Int("obs-queue", 0, "observation commit queue capacity; writers park here awaiting their group fsync (0 = default 1024)")
		obsRetain = flag.String("obs-retention", "", "observation log retention as size and/or age, comma-separated (e.g. 512MB, 72h, 1GiB,7d); empty keeps everything")
		models    modelArgs
	)
	flag.Var(&models, "model", "model artefact to serve, as path or name=path (repeatable; first is the default)")
	edge := obs.EdgeFlags(flag.CommandLine)
	flag.Parse()
	retention, err := parseRetention(*obsRetain)
	var ec obs.EdgeConfig
	if err == nil {
		ec, err = edge(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "coloserve:", err)
		os.Exit(1)
	}
	cfg := adaptArgs{enabled: *adapt, obslog: *obslog, dataset: *dataset, margin: *margin, lambda: *lambda, minObs: *minObs,
		commitInterval: *obsCommit, queue: *obsQueue, retention: retention}
	if err := run(*listen, *timeout, *drain, models, cfg, ec, *pprofOn); err != nil {
		fmt.Fprintln(os.Stderr, "coloserve:", err)
		os.Exit(1)
	}
}

// modelArgs collects repeated -model flags.
type modelArgs []string

func (m *modelArgs) String() string { return strings.Join(*m, ",") }
func (m *modelArgs) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// adaptArgs carries the adaptation flags into run.
type adaptArgs struct {
	enabled        bool
	obslog         string
	dataset        string
	margin         float64
	lambda         float64
	minObs         int
	commitInterval time.Duration
	queue          int
	retention      feedback.Retention
}

// parseRetention parses the -obs-retention flag: a comma-separated list
// of a byte size (decimal KB/MB/GB/TB or binary KiB/MiB/GiB/TiB
// suffixes) and/or a maximum age (a Go duration, with "d" accepted for
// days). Either bound alone is fine; empty means keep everything.
func parseRetention(s string) (feedback.Retention, error) {
	var r feedback.Retention
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, isSize, err := parseByteSize(part)
		if !isSize {
			n, err = parseAge(part)
		}
		if err != nil {
			return r, fmt.Errorf("-obs-retention %q: %w", part, err)
		}
		if isSize {
			r.MaxBytes = n
		} else {
			r.MaxAge = time.Duration(n)
		}
	}
	return r, nil
}

// parseAge parses a Go duration, or a number of days with a "d"
// suffix, into nanoseconds.
func parseAge(s string) (int64, error) {
	if i := len(s) - 1; i > 0 && s[i] == 'd' {
		if days, err := strconv.ParseFloat(s[:i], 64); err == nil {
			return count(days, 24*float64(time.Hour), "age")
		}
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("want a size (512MB) or age (72h)")
	}
	if d < 0 {
		return 0, fmt.Errorf("negative age")
	}
	return int64(d), nil
}

// count converts v units of unit to a whole number of bytes or
// nanoseconds. It refuses what the conversion cannot carry: NaN and
// infinities, negatives, counts past MaxInt64 (an out-of-range float to
// int conversion is implementation-defined in Go), and positive values
// that truncate to zero, which feedback.Retention would read as no bound.
func count(v, unit float64, what string) (int64, error) {
	x := v * unit
	switch {
	case math.IsNaN(x) || math.IsInf(x, 0):
		return 0, fmt.Errorf("%s is not a finite number", what)
	case x < 0:
		return 0, fmt.Errorf("negative %s", what)
	case x >= math.MaxInt64:
		return 0, fmt.Errorf("%s out of range", what)
	case x > 0 && x < 1:
		return 0, fmt.Errorf("%s truncates to zero", what)
	}
	return int64(x), nil
}

// parseByteSize parses "512MB"-style sizes; ok reports whether the
// string looked like a size at all (so non-sizes fall through to the
// duration parser without an error).
func parseByteSize(s string) (n int64, ok bool, err error) {
	units := []struct {
		suffix string
		mult   int64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30}, {"TiB", 1 << 40},
		{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9}, {"TB", 1e12}, {"B", 1},
	}
	for _, u := range units {
		if !strings.HasSuffix(s, u.suffix) {
			continue
		}
		num := strings.TrimSpace(strings.TrimSuffix(s, u.suffix))
		v, perr := strconv.ParseFloat(num, 64)
		if perr != nil {
			return 0, true, fmt.Errorf("bad size number %q", num)
		}
		n, err := count(v, float64(u.mult), "size")
		return n, true, err
	}
	return 0, false, nil
}

// parseModelArg splits a -model value into a registry name and a path:
// "name=path" uses the explicit name, a bare path uses the file's base
// name without extension.
func parseModelArg(arg string) (name, path string, err error) {
	if i := strings.IndexByte(arg, '='); i >= 0 {
		name, path = arg[:i], arg[i+1:]
		if name == "" || path == "" {
			return "", "", fmt.Errorf("bad -model %q (want name=path)", arg)
		}
		return name, path, nil
	}
	base := filepath.Base(arg)
	name = strings.TrimSuffix(base, filepath.Ext(base))
	if name == "" || name == "." || name == string(filepath.Separator) {
		return "", "", fmt.Errorf("bad -model %q: cannot derive a model name", arg)
	}
	return name, arg, nil
}

// buildRegistry loads every -model artefact. Registration order follows
// the flag order, so the first -model is the default.
func buildRegistry(args []string) (*serve.Registry, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("no models: pass at least one -model path (see colotrain -savemodel)")
	}
	reg := serve.NewRegistry()
	for _, arg := range args {
		name, path, err := parseModelArg(arg)
		if err != nil {
			return nil, err
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		m, err := core.LoadModel(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
		if err := reg.Add(name, path, m); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// buildAdaptation assembles the adaptation loop around the registry's
// default model: durable observation log, drift monitor, and the
// retraining controller (augmenting the optional offline sweep).
func buildAdaptation(a adaptArgs, reg *serve.Registry, srv *serve.Server) (*retrain.Controller, error) {
	fcfg := feedback.Config{
		Dir:            a.obslog,
		Sync:           a.obslog != "",
		CommitInterval: a.commitInterval,
		Queue:          a.queue,
		Retention:      a.retention,
	}
	if a.retention.MaxBytes > 0 || a.retention.MaxAge > 0 {
		// Retention drops whole segments; folding sealed segments into
		// chained compacted files first keeps the audit trail
		// tamper-evident while bounding the directory.
		fcfg.CompactAfter = 4
	}
	log, err := feedback.Open(fcfg)
	if err != nil {
		return nil, fmt.Errorf("opening observation log: %w", err)
	}
	var base *harness.Dataset
	if a.dataset != "" {
		f, err := os.Open(a.dataset)
		if err != nil {
			return nil, err
		}
		base, err = harness.ReadCSV(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", a.dataset, err)
		}
	}
	ctrl, err := retrain.New(retrain.Config{
		Model:           reg.DefaultName(),
		MarginPct:       a.margin,
		MinObservations: a.minObs,
		Seed:            1,
	}, reg, base, log)
	if err != nil {
		return nil, err
	}
	if err := srv.EnableAdaptation(serve.Adaptation{
		Log:         log,
		Monitor:     drift.NewMonitor(drift.Config{Lambda: a.lambda}),
		Controller:  ctrl,
		AutoRetrain: true,
	}); err != nil {
		return nil, err
	}
	return ctrl, nil
}

func run(listen string, timeout, drain time.Duration, models modelArgs, a adaptArgs, ec obs.EdgeConfig, pprofOn bool) error {
	reg, err := buildRegistry(models)
	if err != nil {
		return err
	}
	srv := serve.New(reg, serve.Config{
		RequestTimeout: timeout,
		Logger:         ec.Logger, TraceRing: ec.TraceRing, SlowThreshold: ec.SlowThreshold,
		SLOObjective: ec.SLOObjective, SLOLatencyTarget: ec.SLOLatencyTarget,
	})
	if pprofOn {
		srv.EnablePprof()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if a.enabled {
		ctrl, err := buildAdaptation(a, reg, srv)
		if err != nil {
			return err
		}
		ctrl.Start(ctx)
		logDesc := "in-memory"
		if a.obslog != "" {
			logDesc = a.obslog
		}
		fmt.Printf("adaptation on: obslog %s, drift lambda %g, retrain margin %g, min obs %d\n",
			logDesc, a.lambda, a.margin, a.minObs)
	}
	for _, info := range reg.List() {
		def := ""
		if info.Default {
			def = " (default)"
		}
		fmt.Printf("model %s%s: %s on %s, %d apps, %d P-states [%s]\n",
			info.Name, def, info.Spec, info.Machine, len(info.Apps), info.PStates, info.Path)
	}
	tracing, slo, pprofDesc := "off", "off", ""
	if ec.TraceRing > 0 {
		tracing = fmt.Sprintf("ring %d, slow %s", ec.TraceRing, max(ec.SlowThreshold, 0))
	}
	if ec.SLOObjective > 0 {
		slo = fmt.Sprintf("%g objective, latency %s", ec.SLOObjective, max(ec.SLOLatencyTarget, 0))
	}
	if pprofOn {
		pprofDesc = ", pprof on"
	}
	fmt.Printf("observability: logs %s, traces %s, slo %s%s\n", flag.Lookup("log-format").Value, tracing, slo, pprofDesc)
	fmt.Printf("serving on %s (timeout %s, drain %s)\n", listen, timeout, drain)
	if err := srv.ListenAndServe(ctx, listen, drain); err != nil {
		return err
	}
	fmt.Println("drained, exiting")
	return nil
}
