// Package loadgen is the load-generation and soak-testing harness for
// the serve tier. The ROADMAP's north star is a prediction service that
// survives heavy traffic; this package is what proves it: it drives a
// coloserve instance (over HTTP, or its handler directly in process)
// with a Zipf-skewed scenario mix sampled from the served model's
// machine/app/P-state space, measures tail latency in log-bucketed
// histograms, and gates the result against SLOs (max p99, max error
// rate, min throughput).
//
// Two driving modes:
//
//   - Open loop: requests arrive at a fixed rate regardless of how fast
//     the server answers, and latency is measured from each request's
//     *scheduled* arrival — queueing delay under overload is part of the
//     number (no coordinated omission).
//   - Closed loop: a fixed number of workers issue requests
//     back-to-back, the classic saturation soak.
//
// Everything stochastic draws from one explicit seed, so the generated
// op stream is reproducible bit-for-bit; an in-process run against
// serve.Server.Handler() turns the whole registry/predict/adaptation
// stack into a deterministic, race-detectable end-to-end test.
package loadgen

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"colocmodel/internal/obs"
	"colocmodel/internal/xrand"
)

// Mode selects how load is offered.
type Mode int

const (
	// ClosedLoop runs Concurrency workers back-to-back.
	ClosedLoop Mode = iota
	// OpenLoop issues requests at a fixed arrival rate.
	OpenLoop
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ClosedLoop:
		return "closed-loop"
	case OpenLoop:
		return "open-loop"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config tunes a load run.
type Config struct {
	// Mode selects open- or closed-loop driving.
	Mode Mode
	// Rate is the open-loop arrival rate in requests/second (required
	// for OpenLoop, ignored for ClosedLoop).
	Rate float64
	// Concurrency is the worker count. Default 8.
	Concurrency int
	// Duration bounds the run's wall-clock time. Default 10s.
	Duration time.Duration
	// Requests optionally bounds the total requests issued (0 =
	// duration-bound only). A request-bound closed-loop run is
	// independent of machine speed, which is what a deterministic soak
	// test wants.
	Requests int
	// Warmup excludes the run's first stretch from the report, so pool
	// fill and connection establishment do not pollute the quantiles.
	Warmup time.Duration
	// Seed drives scenario sampling and the op mix.
	Seed uint64
	// Mix tunes scenario skew and the operation mix.
	Mix Mix
	// CheckGenerations decodes predict responses and verifies that the
	// serving generation never moves backwards within a worker's request
	// sequence (the hot-swap staleness invariant).
	CheckGenerations bool
}

func (c *Config) defaults() {
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
	c.Mix.defaults()
}

func (c Config) validate() error {
	if c.Mode == OpenLoop && c.Rate <= 0 {
		return fmt.Errorf("loadgen: open-loop mode requires a positive rate")
	}
	if c.Mode != OpenLoop && c.Mode != ClosedLoop {
		return fmt.Errorf("loadgen: unknown mode %d", int(c.Mode))
	}
	if c.Requests < 0 {
		return fmt.Errorf("loadgen: negative request budget")
	}
	if c.Warmup < 0 || c.Duration < 0 {
		return fmt.Errorf("loadgen: negative duration")
	}
	if c.Warmup >= c.Duration && c.Duration > 0 {
		return fmt.Errorf("loadgen: warmup %v consumes the whole run %v", c.Warmup, c.Duration)
	}
	return c.Mix.validate()
}

// workerStats is one worker's private accounting; merged after the run,
// so the hot path takes no locks.
type workerStats struct {
	hist           Histogram
	perOp          map[string]uint64
	stages         map[string]*stageAccum
	ok2xx          uint64
	c4xx           uint64
	s5xx           uint64
	transport      uint64
	warmupRequests uint64
	warmupErrors   uint64
	genRegressions uint64
	lastGen        uint64
}

// stageAccum accumulates one server-side stage's time across a worker's
// measured requests, as reported in Server-Timing response headers.
type stageAccum struct {
	count   uint64
	seconds float64
}

func newWorkerStats() *workerStats {
	return &workerStats{
		perOp:  make(map[string]uint64),
		stages: make(map[string]*stageAccum),
	}
}

// generationOf extracts the serving generation from a predict response.
func generationOf(body []byte) (uint64, bool) {
	var g struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &g); err != nil {
		return 0, false
	}
	return g.Generation, true
}

// execute runs one op and folds the outcome into the worker's stats.
// from is the latency origin: the scheduled arrival for open loop, the
// issue time for closed loop.
func (w *workerStats) execute(d Doer, op Op, from time.Time, warm, checkGen bool) {
	status, header, body, err := d.Do(op)
	lat := time.Since(from)
	if warm {
		w.warmupRequests++
		if err != nil || status < 200 || status >= 300 {
			w.warmupErrors++
		}
		return
	}
	w.hist.Record(lat)
	w.perOp[op.Kind]++
	if err == nil && header != nil {
		obs.EachServerTiming(header.Get("Server-Timing"), func(stage string, seconds float64) {
			sa := w.stages[stage]
			if sa == nil {
				sa = &stageAccum{}
				w.stages[stage] = sa
			}
			sa.count++
			sa.seconds += seconds
		})
	}
	switch {
	case err != nil:
		w.transport++
	case status >= 500:
		w.s5xx++
	case status >= 400:
		w.c4xx++
	default:
		w.ok2xx++
		if checkGen && op.Kind == OpPredict {
			if gen, ok := generationOf(body); ok {
				if gen < w.lastGen {
					w.genRegressions++
				} else {
					w.lastGen = gen
				}
			}
		}
	}
}

// Run executes one load run against the Doer, sampling scenarios from
// the space, and returns the measured report.
func Run(cfg Config, d Doer, space *Space) (*Report, error) {
	if d == nil {
		return nil, fmt.Errorf("loadgen: nil Doer")
	}
	if space == nil {
		return nil, fmt.Errorf("loadgen: nil scenario space")
	}
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	base := xrand.New(cfg.Seed)
	stats := make([]*workerStats, cfg.Concurrency)
	for i := range stats {
		stats[i] = newWorkerStats()
	}
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	warmEnd := start.Add(cfg.Warmup)

	var wg sync.WaitGroup
	switch cfg.Mode {
	case ClosedLoop:
		// Every worker owns an independent split of the seed stream, so
		// each worker's op sequence is deterministic regardless of
		// scheduling.
		var issued atomic.Int64
		for i := range stats {
			gen := newGenerator(space, cfg.Mix, base.Split())
			wg.Add(1)
			go func(ws *workerStats, g *generator) {
				defer wg.Done()
				for {
					now := time.Now()
					if now.After(deadline) {
						return
					}
					if cfg.Requests > 0 && issued.Add(1) > int64(cfg.Requests) {
						return
					}
					ws.execute(d, g.next(), now, now.Before(warmEnd), cfg.CheckGenerations)
				}
			}(stats[i], gen)
		}
	case OpenLoop:
		// One pacer samples the (single, deterministic) op stream and
		// stamps each op with its scheduled arrival; workers measure
		// latency from that stamp, so server-side queueing under
		// overload is charged to the server, not silently omitted.
		type ticket struct {
			op  Op
			due time.Time
		}
		work := make(chan ticket, cfg.Concurrency*64)
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(work)
			g := newGenerator(space, cfg.Mix, base.Split())
			for i := 0; ; i++ {
				if cfg.Requests > 0 && i >= cfg.Requests {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if due.After(deadline) {
					return
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				work <- ticket{op: g.next(), due: due}
			}
		}()
		for i := range stats {
			wg.Add(1)
			go func(ws *workerStats) {
				defer wg.Done()
				for tk := range work {
					ws.execute(d, tk.op, tk.due, tk.due.Before(warmEnd), cfg.CheckGenerations)
				}
			}(stats[i])
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Merge worker-local accounting into the report.
	merged := newWorkerStats()
	for _, ws := range stats {
		merged.hist.Merge(&ws.hist)
		for k, v := range ws.perOp {
			merged.perOp[k] += v
		}
		for k, sa := range ws.stages {
			ms := merged.stages[k]
			if ms == nil {
				ms = &stageAccum{}
				merged.stages[k] = ms
			}
			ms.count += sa.count
			ms.seconds += sa.seconds
		}
		merged.ok2xx += ws.ok2xx
		merged.c4xx += ws.c4xx
		merged.s5xx += ws.s5xx
		merged.transport += ws.transport
		merged.warmupRequests += ws.warmupRequests
		merged.warmupErrors += ws.warmupErrors
		merged.genRegressions += ws.genRegressions
	}
	window := elapsed - cfg.Warmup
	if window <= 0 {
		window = elapsed
	}
	r := &Report{
		Mode:                  cfg.Mode.String(),
		Concurrency:           cfg.Concurrency,
		Seed:                  cfg.Seed,
		DurationSeconds:       window.Seconds(),
		Requests:              merged.hist.Count(),
		WarmupRequests:        merged.warmupRequests,
		WarmupErrors:          merged.warmupErrors,
		Errors:                merged.c4xx + merged.s5xx + merged.transport,
		Status2xx:             merged.ok2xx,
		Status4xx:             merged.c4xx,
		Status5xx:             merged.s5xx,
		TransportErrors:       merged.transport,
		GenerationRegressions: merged.genRegressions,
		PerOp:                 merged.perOp,
		Latency: Quantiles{
			P50:  merged.hist.Quantile(0.50).Seconds(),
			P95:  merged.hist.Quantile(0.95).Seconds(),
			P99:  merged.hist.Quantile(0.99).Seconds(),
			P999: merged.hist.Quantile(0.999).Seconds(),
			Mean: merged.hist.Mean().Seconds(),
			Max:  merged.hist.Max().Seconds(),
		},
	}
	if len(merged.stages) > 0 {
		r.ServerStages = make(map[string]StageStat, len(merged.stages))
		for k, sa := range merged.stages {
			ss := StageStat{Count: sa.count, TotalSeconds: sa.seconds}
			if sa.count > 0 {
				ss.MeanSeconds = sa.seconds / float64(sa.count)
			}
			r.ServerStages[k] = ss
		}
	}
	if cfg.Mode == OpenLoop {
		r.TargetRate = cfg.Rate
	}
	if r.Requests > 0 {
		r.ErrorRate = float64(r.Errors) / float64(r.Requests)
	}
	if window > 0 {
		r.ThroughputPerSec = float64(r.Requests) / window.Seconds()
	}
	return r, nil
}
