// Package loadgen is the soak harness for the serve tier. It drives a
// coloserve handler (in process, or a whole fleet behind a colorouter
// via ClusterTarget) with a seeded, Zipf-skewed op stream sampled from
// the served model's machine/app/P-state space, from a fixed number of
// closed-loop workers, and reports what the soak's invariants need:
// status counts per class, per-op counts, per-worker generation
// monotonicity and which Server-Timing stages the replies named.
//
// It does not time anything. The repository benchmark (bench/) is the
// one instrument for latency and throughput; it shares only Space with
// this package.
//
// Everything stochastic draws from one explicit seed, and a run is
// bounded by its request count, so each worker's op sequence is
// reproducible bit for bit and an in-process run against
// serve.Server.Handler() is a deterministic, race-detectable end-to-end
// test.
package loadgen

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"colocmodel/internal/obs"
	"colocmodel/internal/xrand"
)

// Config tunes one soak.
type Config struct {
	// Workers is the number of closed-loop workers. Default 8.
	Workers int
	// Requests is the number of operations the workers issue between
	// them. It must be positive.
	Requests int
	// Seed drives scenario sampling and the op mix; every worker draws
	// from its own split of it.
	Seed uint64
	// Mix tunes scenario skew and the operation mix.
	Mix Mix
}

// Result is what one soak saw.
type Result struct {
	// Requests counts the operations issued; PerOp breaks them down by
	// kind (the Op* constants).
	Requests uint64
	PerOp    map[string]uint64
	// Status4xx, Status5xx and TransportErrors count the failed
	// operations by class.
	Status4xx       uint64
	Status5xx       uint64
	TransportErrors uint64
	// GenerationRegressions counts successful predict replies whose
	// registry generation was lower than one the same worker had already
	// seen: a stale model served after a hot swap.
	GenerationRegressions uint64
	// Stages counts, per stage name, the replies whose Server-Timing
	// header named it (decode, eval, encode, route, backend, ...).
	Stages map[string]uint64
}

// Gate returns one line per broken soak invariant: any 4xx (the
// generator only emits valid requests), any 5xx or transport error, and
// any generation regression. An empty result means the soak passed.
func (r *Result) Gate() []string {
	var v []string
	for _, c := range []struct {
		n    uint64
		what string
	}{
		{r.Status4xx, "answered 4xx"},
		{r.Status5xx, "answered 5xx"},
		{r.TransportErrors, "failed in transport"},
		{r.GenerationRegressions, "saw the generation move backwards"},
	} {
		if c.n > 0 {
			v = append(v, fmt.Sprintf("%d of %d requests %s", c.n, r.Requests, c.what))
		}
	}
	return v
}

// worker is one worker's private accounting, merged after the run so
// the loop takes no locks.
type worker struct {
	Result
	lastGen uint64
}

// generationOf extracts the serving generation from a predict reply.
func generationOf(body []byte) (uint64, bool) {
	var g struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &g); err != nil {
		return 0, false
	}
	return g.Generation, true
}

// execute runs one op and folds its outcome into the worker's result.
func (w *worker) execute(d Doer, op Op) {
	status, header, body, err := d.Do(op)
	w.Requests++
	w.PerOp[op.Kind]++
	if err == nil && header != nil {
		obs.EachServerTiming(header.Get("Server-Timing"), func(stage string, _ float64) {
			w.Stages[stage]++
		})
	}
	switch {
	case err != nil:
		w.TransportErrors++
	case status >= 500:
		w.Status5xx++
	case status >= 400:
		w.Status4xx++
	case op.Kind == OpPredict:
		if gen, ok := generationOf(body); ok {
			if gen < w.lastGen {
				w.GenerationRegressions++
			} else {
				w.lastGen = gen
			}
		}
	}
}

// Run drives cfg.Requests operations through d from cfg.Workers
// closed-loop workers, sampling scenarios from space, and returns what
// they saw.
func Run(cfg Config, d Doer, space *Space) (*Result, error) {
	switch {
	case d == nil:
		return nil, fmt.Errorf("loadgen: nil Doer")
	case space == nil:
		return nil, fmt.Errorf("loadgen: nil scenario space")
	case cfg.Requests <= 0:
		return nil, fmt.Errorf("loadgen: request budget must be positive, got %d", cfg.Requests)
	case cfg.Workers < 0:
		return nil, fmt.Errorf("loadgen: negative worker count")
	}
	if cfg.Workers == 0 {
		cfg.Workers = 8
	}
	if err := cfg.Mix.validate(); err != nil {
		return nil, err
	}

	// Every worker owns an independent split of the seed stream, so each
	// worker's op sequence is deterministic regardless of scheduling.
	base := xrand.New(cfg.Seed)
	workers := make([]*worker, cfg.Workers)
	var issued atomic.Int64
	var wg sync.WaitGroup
	for i := range workers {
		w := &worker{Result: Result{PerOp: make(map[string]uint64), Stages: make(map[string]uint64)}}
		workers[i] = w
		g := newGenerator(space, cfg.Mix, base.Split())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for issued.Add(1) <= int64(cfg.Requests) {
				w.execute(d, g.next())
			}
		}()
	}
	wg.Wait()

	r := &Result{PerOp: make(map[string]uint64), Stages: make(map[string]uint64)}
	for _, w := range workers {
		r.Requests += w.Requests
		r.Status4xx += w.Status4xx
		r.Status5xx += w.Status5xx
		r.TransportErrors += w.TransportErrors
		r.GenerationRegressions += w.GenerationRegressions
		for k, v := range w.PerOp {
			r.PerOp[k] += v
		}
		for k, v := range w.Stages {
			r.Stages[k] += v
		}
	}
	return r, nil
}
