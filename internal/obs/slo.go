package obs

import (
	"sync/atomic"
	"time"
)

// SLOConfig tunes an SLOTracker.
type SLOConfig struct {
	// Objective is the good-request fraction target in (0,1), e.g.
	// 0.999. The error budget is 1-Objective. Default 0.999.
	Objective float64
	// LatencyTarget makes latency part of the objective: a request is
	// good only if it finished within the target AND did not fail. 0
	// means errors alone burn budget.
	LatencyTarget time.Duration
	// ShortWindow and LongWindow are the two burn-rate windows (the
	// classic fast/slow pair). Defaults 5m and 1h.
	ShortWindow, LongWindow time.Duration
	// BucketWidth is the ring's time-bucket granularity. Default 10s.
	// Both windows are rounded up to whole buckets.
	BucketWidth time.Duration
	// WarnBurn and PageBurn are burn-rate thresholds (1.0 = burning the
	// budget exactly as fast as the objective allows over the window).
	// A state fires only when BOTH windows exceed its threshold, so a
	// long-past incident (long window still high) or a brief blip
	// (short window spike) alone does not page. Defaults 2 and 10.
	WarnBurn, PageBurn float64
}

func (c *SLOConfig) applyDefaults() {
	if c.Objective <= 0 || c.Objective >= 1 {
		c.Objective = 0.999
	}
	if c.ShortWindow <= 0 {
		c.ShortWindow = 5 * time.Minute
	}
	if c.LongWindow <= 0 {
		c.LongWindow = time.Hour
	}
	if c.LongWindow < c.ShortWindow {
		c.LongWindow = c.ShortWindow
	}
	if c.BucketWidth <= 0 {
		c.BucketWidth = 10 * time.Second
	}
	if c.BucketWidth > c.ShortWindow {
		c.BucketWidth = c.ShortWindow
	}
	if c.WarnBurn <= 0 {
		c.WarnBurn = 2
	}
	if c.PageBurn <= c.WarnBurn {
		c.PageBurn = 10
		if c.PageBurn <= c.WarnBurn {
			c.PageBurn = c.WarnBurn * 2
		}
	}
}

// sloBucket is one time bucket of good/bad counts. epoch is the bucket
// sequence number (unix time / width) the counts belong to; a bucket is
// lazily re-zeroed when its slot is reused for a new epoch.
type sloBucket struct {
	epoch     atomic.Int64
	good, bad atomic.Uint64
}

// SLOTracker measures SLO burn rate over a lock-free ring of time
// buckets. Observe is wait-free on the hot path: locate the current
// bucket by epoch, CAS it forward if the slot is stale, add one
// counter. The CAS loser of a bucket turnover may drop that single
// observation — tolerable for telemetry, and single-threaded use (as in
// tests) is exact. A nil tracker no-ops everywhere.
type SLOTracker struct {
	cfg      SLOConfig
	budget   float64 // 1 - objective
	nbuckets int
	buckets  []sloBucket
}

// NewSLOTracker builds a tracker; zero config fields take defaults.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	cfg.applyDefaults()
	n := int((cfg.LongWindow + cfg.BucketWidth - 1) / cfg.BucketWidth)
	// One extra slot so the oldest in-window bucket is not reused by the
	// current epoch mid-read.
	n++
	return &SLOTracker{
		cfg:      cfg,
		budget:   1 - cfg.Objective,
		nbuckets: n,
		buckets:  make([]sloBucket, n),
	}
}

// Config returns the tracker's resolved configuration.
func (t *SLOTracker) Config() SLOConfig {
	if t == nil {
		return SLOConfig{}
	}
	return t.cfg
}

// Observe records one request outcome at the current time.
func (t *SLOTracker) Observe(d time.Duration, failed bool) {
	if t == nil {
		return
	}
	t.ObserveAt(time.Now(), d, failed)
}

// ObserveAt is Observe with an explicit clock, for deterministic tests.
func (t *SLOTracker) ObserveAt(now time.Time, d time.Duration, failed bool) {
	if t == nil {
		return
	}
	good := !failed && (t.cfg.LatencyTarget <= 0 || d <= t.cfg.LatencyTarget)
	epoch := now.UnixNano() / int64(t.cfg.BucketWidth)
	b := &t.buckets[int(epoch%int64(t.nbuckets))]
	if e := b.epoch.Load(); e != epoch {
		if b.epoch.CompareAndSwap(e, epoch) {
			b.good.Store(0)
			b.bad.Store(0)
		}
	}
	if good {
		b.good.Add(1)
	} else {
		b.bad.Add(1)
	}
}

// SLOWindow is one window's aggregated counts and burn rate.
type SLOWindow struct {
	// Window is the nominal width ("5m0s", "1h0m0s" rendered by caller).
	Window time.Duration `json:"window_ns"`
	Good   uint64        `json:"good"`
	Bad    uint64        `json:"bad"`
	// BurnRate is (bad/total)/(1-objective); 0 when the window is empty.
	// 1.0 means the error budget is being consumed exactly at the rate
	// the objective allows.
	BurnRate float64 `json:"burn_rate"`
}

// SLOStatus is the tracker's verdict: per-window burn plus an
// ok|warn|page state.
type SLOStatus struct {
	Objective     float64   `json:"objective"`
	LatencyTarget float64   `json:"latency_target_ms,omitempty"`
	Short         SLOWindow `json:"short"`
	Long          SLOWindow `json:"long"`
	// State is "ok", "warn" or "page".
	State string `json:"state"`
}

// Status computes the current verdict.
func (t *SLOTracker) Status() SLOStatus {
	return t.StatusAt(time.Now())
}

// StatusAt is Status with an explicit clock, for deterministic tests.
// A bucket counts toward a window when its epoch lies within the last
// window/width epochs including the current (partial) one, so the
// effective horizon is [window-width, window) behind now — boundaries
// land exactly on bucket edges.
func (t *SLOTracker) StatusAt(now time.Time) SLOStatus {
	if t == nil {
		return SLOStatus{State: "disabled"}
	}
	nowEpoch := now.UnixNano() / int64(t.cfg.BucketWidth)
	shortN := int64((t.cfg.ShortWindow + t.cfg.BucketWidth - 1) / t.cfg.BucketWidth)
	longN := int64((t.cfg.LongWindow + t.cfg.BucketWidth - 1) / t.cfg.BucketWidth)
	var st SLOStatus
	st.Objective = t.cfg.Objective
	st.LatencyTarget = float64(t.cfg.LatencyTarget) / 1e6
	st.Short.Window = t.cfg.ShortWindow
	st.Long.Window = t.cfg.LongWindow
	for i := range t.buckets {
		b := &t.buckets[i]
		e := b.epoch.Load()
		age := nowEpoch - e
		if age < 0 || age >= longN {
			continue
		}
		good, bad := b.good.Load(), b.bad.Load()
		st.Long.Good += good
		st.Long.Bad += bad
		if age < shortN {
			st.Short.Good += good
			st.Short.Bad += bad
		}
	}
	st.Short.BurnRate = t.burn(st.Short.Good, st.Short.Bad)
	st.Long.BurnRate = t.burn(st.Long.Good, st.Long.Bad)
	switch {
	case st.Short.BurnRate >= t.cfg.PageBurn && st.Long.BurnRate >= t.cfg.PageBurn:
		st.State = "page"
	case st.Short.BurnRate >= t.cfg.WarnBurn && st.Long.BurnRate >= t.cfg.WarnBurn:
		st.State = "warn"
	default:
		st.State = "ok"
	}
	return st
}

func (t *SLOTracker) burn(good, bad uint64) float64 {
	total := good + bad
	if total == 0 || t.budget <= 0 {
		return 0
	}
	return float64(bad) / float64(total) / t.budget
}

// sloStateValue maps a verdict to its gauge encoding (0 ok, 1 warn,
// 2 page).
func sloStateValue(state string) int {
	switch state {
	case "warn":
		return 1
	case "page":
		return 2
	default:
		return 0
	}
}

// Register declares the tracker's verdict as gauges under the given
// metric prefix ("coloserve", "colorouter"): <prefix>_slo_objective,
// _slo_burn_rate{window=}, _slo_good_total / _slo_bad_total{window=}
// (window-scoped gauges, not counters — they fall as buckets expire),
// and _slo_state (0 ok / 1 warn / 2 page). One Status is computed per
// scrape. No-op on a nil tracker.
func (t *SLOTracker) Register(reg *Registry, prefix string) {
	if t == nil {
		return
	}
	reg.Collect(func(w *Writer) {
		st := t.Status()
		windows := [2]SLOWindow{st.Short, st.Long}
		label := func(win SLOWindow) Label { return Label{"window", win.Window.String()} }
		w.Gauge(prefix+"_slo_objective", "Configured good-request fraction objective.", st.Objective)
		for _, win := range windows {
			w.Gauge(prefix+"_slo_burn_rate", "Error-budget burn rate per alert window (1 = exactly on budget).", win.BurnRate, label(win))
		}
		for _, win := range windows {
			w.Gauge(prefix+"_slo_good_total", "Good requests in each alert window.", float64(win.Good), label(win))
		}
		for _, win := range windows {
			w.Gauge(prefix+"_slo_bad_total", "Bad requests in each alert window.", float64(win.Bad), label(win))
		}
		w.Gauge(prefix+"_slo_state", "SLO verdict: 0 ok, 1 warn, 2 page.", float64(sloStateValue(st.State)))
	})
}
