// Package drift watches the stream of prediction residuals for
// evidence that a deployed model no longer matches its workload. The
// paper's models are trained once on an offline homogeneous sweep
// (Table V) and Section IV-B3 concedes their accuracy depends on
// deployment resembling that sweep; when the workload mix shifts, the
// signed percent error of predictions drifts away from zero and this
// package is what notices.
//
// Two layers per (model × target) stream:
//
//   - Welford running moments of the signed percent error — mean,
//     standard deviation, mean absolute error — numerically stable in
//     one pass, O(1) memory per stream.
//   - A two-sided Page–Hinkley detector: cumulative deviation of the
//     residual from its own running mean, beyond a tolerance δ, with
//     the running extremum subtracted. The score rises persistently
//     only under a sustained shift (not isolated noise) and trips when
//     it exceeds λ.
//
// Trips are sticky per stream until Reset (typically after a model
// promotion makes old residuals meaningless).
package drift

import (
	"math"
	"sort"
	"sync"
)

// Config tunes the detector.
type Config struct {
	// Lambda is the trip threshold on the cumulative score. Default 50.
	Lambda float64
	// MinSamples is the number of residuals a stream needs before it
	// may trip, so a cold stream cannot fire on its first few
	// observations. Default 30.
	MinSamples int
}

// delta is the Page–Hinkley tolerance δ in percent-error units:
// deviations from the running mean smaller than two percentage points
// do not accumulate.
const delta = 2

func (c *Config) defaults() {
	if c.Lambda == 0 {
		c.Lambda = 50
	}
	if c.MinSamples == 0 {
		c.MinSamples = 30
	}
}

// key identifies one residual stream.
type key struct{ model, target string }

// cell is the per-stream state: Welford moments plus the two-sided
// Page–Hinkley accumulators.
type cell struct {
	count      int
	mean, m2   float64 // Welford on signed percent error
	meanAbs    float64
	mUp, minUp float64 // upward accumulator and its running minimum
	mDn, maxDn float64 // downward accumulator and its running maximum
	tripped    bool
}

// observe folds one residual into the stream and reports whether this
// observation transitioned the stream into the tripped state.
func (c *cell) observe(x, lambda float64, minSamples int) bool {
	c.count++
	d := x - c.mean
	c.mean += d / float64(c.count)
	c.m2 += d * (x - c.mean)
	c.meanAbs += (math.Abs(x) - c.meanAbs) / float64(c.count)

	// Page–Hinkley, both directions: residual mean shifting up
	// (systematic over-prediction) or down (under-prediction).
	c.mUp += x - c.mean - delta
	c.minUp = math.Min(c.minUp, c.mUp)
	c.mDn += x - c.mean + delta
	c.maxDn = math.Max(c.maxDn, c.mDn)

	if c.tripped || c.count < minSamples {
		return false
	}
	if c.score() > lambda {
		c.tripped = true
		return true
	}
	return false
}

// score is the larger of the two directional Page–Hinkley statistics.
func (c *cell) score() float64 {
	return math.Max(c.mUp-c.minUp, c.maxDn-c.mDn)
}

func (c *cell) std() float64 {
	if c.count < 2 {
		return 0
	}
	return math.Sqrt(c.m2 / float64(c.count-1))
}

// Monitor aggregates residual streams for every (model × target) pair.
type Monitor struct {
	mu    sync.Mutex
	cfg   Config
	cells map[key]*cell
}

// NewMonitor returns an empty monitor.
func NewMonitor(cfg Config) *Monitor {
	cfg.defaults()
	return &Monitor{cfg: cfg, cells: make(map[key]*cell)}
}

// Observe folds one signed-percent-error residual into the (model,
// target) stream and reports whether this observation tripped the
// stream's detector (the retraining trigger edge).
func (m *Monitor) Observe(model, target string, pctError float64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.cells[key{model, target}]
	if !ok {
		c = &cell{}
		m.cells[key{model, target}] = c
	}
	return c.observe(pctError, m.cfg.Lambda, m.cfg.MinSamples)
}

// Reset clears every stream of the named model. Called after a
// promotion: the new incumbent's residuals start from scratch.
func (m *Monitor) Reset(model string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range m.cells {
		if k.model == model {
			delete(m.cells, k)
		}
	}
}

// Stat is one stream's view in a drift report.
type Stat struct {
	// Model and Target identify the stream.
	Model  string `json:"model"`
	Target string `json:"target"`
	// Count is the number of residuals observed.
	Count int `json:"count"`
	// MeanPct and StdPct are the running moments of the signed percent
	// error.
	MeanPct float64 `json:"mean_pct"`
	StdPct  float64 `json:"std_pct"`
	// MeanAbsPct is the running mean absolute percent error — the
	// online analogue of the paper's MPE (Eq. 2).
	MeanAbsPct float64 `json:"mean_abs_pct"`
	// Score is the current Page–Hinkley statistic.
	Score float64 `json:"score"`
	// Tripped reports whether the stream's detector has fired.
	Tripped bool `json:"tripped"`
}

// Report is the monitor's full state.
type Report struct {
	// Streams lists every (model × target) stream, sorted by model
	// then target.
	Streams []Stat `json:"streams"`
	// MaxScore is the largest stream score (the drift gauge).
	MaxScore float64 `json:"max_score"`
	// Tripped reports whether any stream has fired.
	Tripped bool `json:"tripped"`
}

// Report snapshots every stream.
func (m *Monitor) Report() Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := Report{Streams: make([]Stat, 0, len(m.cells))}
	for k, c := range m.cells {
		s := Stat{
			Model: k.model, Target: k.target,
			Count: c.count, MeanPct: c.mean, StdPct: c.std(),
			MeanAbsPct: c.meanAbs, Score: c.score(), Tripped: c.tripped,
		}
		r.Streams = append(r.Streams, s)
		r.MaxScore = math.Max(r.MaxScore, s.Score)
		r.Tripped = r.Tripped || s.Tripped
	}
	sort.Slice(r.Streams, func(i, j int) bool {
		a, b := r.Streams[i], r.Streams[j]
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		return a.Target < b.Target
	})
	return r
}

// MaxScore returns the largest stream score without building a full
// report (the metrics hot path).
func (m *Monitor) MaxScore() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	max := 0.0
	for _, c := range m.cells {
		max = math.Max(max, c.score())
	}
	return max
}

// Tripped reports whether any stream has fired.
func (m *Monitor) Tripped() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.cells {
		if c.tripped {
			return true
		}
	}
	return false
}
