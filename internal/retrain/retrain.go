// Package retrain closes the adaptation loop: when the drift monitor
// (or an operator) signals that a serving model no longer matches its
// workload, the controller trains a candidate replacement on an
// augmented dataset — the original offline sweep plus the logged
// deployment observations — gates it against the incumbent on a
// held-out split, and promotes it through the registry's atomic
// hot-swap only if it wins by a configurable margin. The incumbent
// keeps serving through training, through a failed gate, and through
// any error; a promotion history records every attempt.
//
// The gate is the paper's own yardstick: MPE (Eq. 2) of predicted vs.
// measured execution time on records the candidate never trained on.
package retrain

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/feedback"
	"colocmodel/internal/harness"
	"colocmodel/internal/obs"
	"colocmodel/internal/stats"
	"colocmodel/internal/xrand"
)

// Registry is the slice of the serving registry the controller needs:
// read the incumbent, atomically swap in a winner. Satisfied by
// serve.Registry.
type Registry interface {
	Get(name string) (*core.Model, uint64, error)
	Swap(name string, m *core.Model) error
}

// ObservationSource supplies the logged deployment observations. The
// controller consumes the feedback.Store interface, never a concrete
// log type: any store implementation (file-backed, memory, object
// store) can feed retraining, and dataset assembly reads through the
// store's snapshot semantics — a compaction pass racing All() is
// invisible to the read (the store keeps a snapshot's files on disk
// until its readers are done).
type ObservationSource = feedback.Store

// Config tunes the controller.
type Config struct {
	// Model is the registry entry the controller manages.
	Model string
	// MarginPct is the gate: the candidate's holdout MPE must be at
	// least this many percentage points below the incumbent's.
	// Default 0.25.
	MarginPct float64
	// MinObservations is the fewest logged observations worth
	// retraining on. Default 30.
	MinObservations int
	// Seed drives the train/holdout shuffle and candidate
	// initialisation; each attempt derives its own stream from it.
	Seed uint64
}

// holdoutFraction is the share of the augmented dataset withheld from
// training and used for the gate: the paper's test fraction.
const holdoutFraction = 0.3

func (c *Config) defaults() error {
	if c.Model == "" {
		return fmt.Errorf("retrain: config needs a model name")
	}
	if c.MarginPct == 0 {
		c.MarginPct = 0.25
	}
	if math.IsNaN(c.MarginPct) || math.IsInf(c.MarginPct, 0) {
		// A NaN margin makes the gate's comparison false, which promotes
		// every candidate.
		return fmt.Errorf("retrain: margin %v is not a finite number", c.MarginPct)
	}
	if c.MinObservations == 0 {
		c.MinObservations = 30
	}
	return nil
}

// Result reports one retraining attempt.
type Result struct {
	// Attempt numbers the attempt (1-based).
	Attempt int `json:"attempt"`
	// Reason is what triggered it ("drift", "manual", ...).
	Reason string `json:"reason"`
	// BaseRecords and Observations count the augmented dataset's two
	// halves; SkippedObservations were unusable (unknown app, bad
	// P-state) and excluded.
	BaseRecords         int `json:"base_records"`
	Observations        int `json:"observations"`
	SkippedObservations int `json:"skipped_observations,omitempty"`
	// TrainSize and TestSize describe the deterministic split.
	TrainSize int `json:"train_size"`
	TestSize  int `json:"test_size"`
	// CandidateMPE and IncumbentMPE are the holdout errors the gate
	// compared (Eq. 2).
	CandidateMPE float64 `json:"candidate_mpe"`
	IncumbentMPE float64 `json:"incumbent_mpe"`
	// Promoted reports whether the candidate replaced the incumbent.
	Promoted bool `json:"promoted"`
	// Rejection explains a non-promotion ("" when promoted).
	Rejection string `json:"rejection,omitempty"`
	// Generation is the registry generation after the attempt.
	Generation uint64 `json:"generation"`
}

// ErrInProgress is RunOnce's error when another attempt is already
// running: attempts are serialised, and a second one is refused rather
// than queued behind the first.
var ErrInProgress = errors.New("retrain: attempt already in progress")

// Status is the controller's queryable state.
type Status struct {
	// State is "idle" or "training".
	State string `json:"state"`
	// Attempts, Promoted and Rejected count completed attempts.
	Attempts int `json:"attempts"`
	Promoted int `json:"promoted"`
	Rejected int `json:"rejected"`
	// Last is the most recent completed attempt (nil before any).
	Last *Result `json:"last,omitempty"`
	// History lists every completed attempt, oldest first.
	History []Result `json:"history"`
}

// Controller runs gated background retraining for one registry entry.
type Controller struct {
	cfg  Config
	reg  Registry
	base *harness.Dataset // offline sweep; may be nil (observations only)
	obs  ObservationSource

	// onPromote is called with the model name after each promotion
	// (the serve tier uses it to reset the drift monitor).
	onPromote func(model string)

	// tracer, when set, records each attempt's stage lifecycle (dataset
	// assembly, train, holdout eval, promote) as a retained trace.
	tracer *obs.Tracer

	// scratch carries the trainer's reusable buffers (QR scratch, neural
	// workspace) across attempts. Attempts are serialised by the training
	// flag, so the single scratch is never used concurrently.
	scratch *core.TrainScratch

	mu       sync.Mutex
	training bool
	attempts int
	promoted int
	rejected int
	history  []Result

	trigger chan string
}

// New builds a controller. base supplies the offline training records
// and the baseline store; nil trains on logged observations alone,
// using the incumbent's baseline store for features.
func New(cfg Config, reg Registry, base *harness.Dataset, obs ObservationSource) (*Controller, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if reg == nil {
		return nil, fmt.Errorf("retrain: nil registry")
	}
	if obs == nil {
		return nil, fmt.Errorf("retrain: nil observation source")
	}
	return &Controller{
		cfg: cfg, reg: reg, base: base, obs: obs,
		scratch: core.NewTrainScratch(),
		trigger: make(chan string, 4),
	}, nil
}

// OnPromote registers a callback invoked (synchronously, outside the
// controller lock) with the model name after each promotion.
func (c *Controller) OnPromote(fn func(model string)) { c.onPromote = fn }

// SetTracer attaches a span tracer; each retraining attempt then
// records its stage timings as a "retrain" trace (nil detaches).
func (c *Controller) SetTracer(tr *obs.Tracer) { c.tracer = tr }

// Trigger requests a background retraining attempt. It never blocks;
// it reports false when the queue is full (attempts already pending),
// which is not an error — the pending attempt will see the same
// observations.
func (c *Controller) Trigger(reason string) bool {
	select {
	case c.trigger <- reason:
		return true
	default:
		return false
	}
}

// Start runs the background loop until ctx is cancelled: each queued
// trigger becomes one synchronous retraining attempt.
func (c *Controller) Start(ctx context.Context) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case reason := <-c.trigger:
				// Errors are recorded in history by RunOnce; a
				// background attempt has nowhere else to report.
				_, _ = c.RunOnce(reason)
			}
		}
	}()
}

// RunOnce performs one synchronous retraining attempt: assemble the
// augmented dataset, train a candidate, gate it on the holdout, and
// promote through the registry only on a win. Any failure leaves the
// incumbent serving and is recorded as a rejected attempt.
func (c *Controller) RunOnce(reason string) (*Result, error) {
	c.mu.Lock()
	if c.training {
		c.mu.Unlock()
		return nil, ErrInProgress
	}
	c.training = true
	c.attempts++
	attempt := c.attempts
	c.mu.Unlock()

	// Retrain attempts are rare and always worth a retained trace: the
	// stage spans answer "where did that attempt spend its time" and the
	// root annotations record the verdict.
	tr := c.tracer.Start("retrain", reason, obs.NewRequestID())
	tr.Retain()
	res, err := c.attemptLocked(tr, attempt, reason)
	if tr != nil {
		if res != nil {
			tr.Annotate("promoted", fmt.Sprintf("%t", res.Promoted))
			if res.Rejection != "" {
				tr.Annotate("rejection", res.Rejection)
			}
		}
		tr.Finish(0, err != nil)
	}

	c.mu.Lock()
	c.training = false
	if res != nil {
		if res.Promoted {
			c.promoted++
		} else {
			c.rejected++
		}
		c.history = append(c.history, *res)
	}
	c.mu.Unlock()
	if res != nil && res.Promoted && c.onPromote != nil {
		c.onPromote(c.cfg.Model)
	}
	return res, err
}

// attemptLocked is the body of one attempt. It holds no lock (training
// can be slow); the caller serialises attempts via the training flag.
// tr may be nil; stage spans are recorded when it is live.
func (c *Controller) attemptLocked(tr *obs.Trace, attempt int, reason string) (*Result, error) {
	res := &Result{Attempt: attempt, Reason: reason}
	reject := func(format string, args ...any) (*Result, error) {
		res.Rejection = fmt.Sprintf(format, args...)
		if _, gen, err := c.reg.Get(c.cfg.Model); err == nil {
			res.Generation = gen
		}
		return res, nil
	}

	incumbent, gen, err := c.reg.Get(c.cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("retrain: resolving incumbent: %w", err)
	}
	res.Generation = gen

	asp := tr.StartSpan("dataset_assembly")
	observations, err := c.obs.All()
	if err != nil {
		asp.Fail(err.Error())
		asp.End()
		return nil, fmt.Errorf("retrain: reading observations: %w", err)
	}
	if len(observations) < c.cfg.MinObservations {
		asp.End()
		return reject("only %d observations, need %d", len(observations), c.cfg.MinObservations)
	}

	// The feature source: the offline dataset if present, else the
	// incumbent's baseline store (artefacts carry baselines).
	base := c.base
	if base == nil {
		base = incumbent.Baselines()
	}
	if base == nil {
		asp.End()
		return nil, fmt.Errorf("retrain: no baseline store available")
	}

	// Assemble the augmented dataset: offline records first, then
	// logged observations, both as (scenario, measured seconds).
	var scs []features.Scenario
	var secs []float64
	if c.base != nil {
		for _, r := range c.base.Records {
			scs = append(scs, features.ScenarioFromRecord(r))
			secs = append(secs, r.Seconds)
		}
	}
	res.BaseRecords = len(scs)
	for _, o := range observations {
		sc := features.Scenario{Target: o.Target, CoApps: o.CoApps, PState: o.PState}
		if !usable(base, sc) {
			res.SkippedObservations++
			continue
		}
		scs = append(scs, sc)
		secs = append(secs, o.MeasuredSeconds)
	}
	res.Observations = len(scs) - res.BaseRecords
	if res.Observations < c.cfg.MinObservations {
		asp.End()
		return reject("only %d usable observations, need %d", res.Observations, c.cfg.MinObservations)
	}

	// Deterministic shuffle, split off the holdout.
	src := xrand.New(c.cfg.Seed + uint64(attempt))
	perm := src.Perm(len(scs))
	nTest := int(holdoutFraction * float64(len(scs)))
	if nTest < 1 || len(scs)-nTest < 2 {
		asp.End()
		return reject("augmented dataset of %d records too small to split", len(scs))
	}
	testScs, testY := pick(scs, secs, perm[:nTest])
	trainScs, trainY := pick(scs, secs, perm[nTest:])
	res.TrainSize, res.TestSize = len(trainScs), len(testScs)
	asp.Annotate("records", fmt.Sprintf("%d", len(scs)))
	asp.End()

	// The candidate is trained to the incumbent's spec.
	spec := incumbent.Spec
	spec.Seed = c.cfg.Seed + uint64(attempt)

	tsp := tr.StartSpan("train")
	candidate, err := core.TrainScenariosScratch(spec, base, trainScs, trainY, c.scratch)
	if err != nil {
		tsp.Fail(err.Error())
		tsp.End()
		return reject("training candidate: %v", err)
	}
	tsp.End()

	hsp := tr.StartSpan("holdout_eval")
	candMPE, err := holdoutMPE(candidate, testScs, testY)
	if err != nil {
		hsp.End()
		return reject("evaluating candidate: %v", err)
	}
	incMPE, err := holdoutMPE(incumbent, testScs, testY)
	hsp.End()
	if err != nil {
		return reject("evaluating incumbent: %v", err)
	}
	res.CandidateMPE, res.IncumbentMPE = candMPE, incMPE

	if candMPE+c.cfg.MarginPct > incMPE {
		return reject("candidate MPE %.3f%% does not beat incumbent %.3f%% by %.3g points",
			candMPE, incMPE, c.cfg.MarginPct)
	}

	psp := tr.StartSpan("promote")
	err = c.reg.Swap(c.cfg.Model, candidate)
	psp.End()
	if err != nil {
		return nil, fmt.Errorf("retrain: promoting candidate: %w", err)
	}
	res.Promoted = true
	if _, gen, err := c.reg.Get(c.cfg.Model); err == nil {
		res.Generation = gen
	}
	return res, nil
}

// usable reports whether a scenario can produce features against the
// baseline store (known apps, in-range P-state).
func usable(ds *harness.Dataset, sc features.Scenario) bool {
	b, err := ds.Baseline(sc.Target)
	if err != nil {
		return false
	}
	if sc.PState < 0 || sc.PState >= len(b.SecondsByPState) {
		return false
	}
	for _, a := range sc.CoApps {
		if _, err := ds.Baseline(a); err != nil {
			return false
		}
	}
	return true
}

func pick(scs []features.Scenario, secs []float64, idx []int) ([]features.Scenario, []float64) {
	outS := make([]features.Scenario, len(idx))
	outY := make([]float64, len(idx))
	for i, j := range idx {
		outS[i], outY[i] = scs[j], secs[j]
	}
	return outS, outY
}

// holdoutMPE is the gate metric: MPE (Eq. 2) of a model's predictions on
// the held-out scenarios, evaluated in one batched pass (bit-identical to
// predicting scenario-at-a-time).
func holdoutMPE(m *core.Model, scs []features.Scenario, measured []float64) (float64, error) {
	pred, err := m.PredictScenarios(scs)
	if err != nil {
		return 0, err
	}
	return stats.MPE(pred, measured)
}

// Status snapshots the controller.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{
		State:    "idle",
		Attempts: c.attempts,
		Promoted: c.promoted,
		Rejected: c.rejected,
		History:  append([]Result(nil), c.history...),
	}
	if c.training {
		s.State = "training"
	}
	if n := len(c.history); n > 0 {
		last := c.history[n-1]
		s.Last = &last
	}
	return s
}
