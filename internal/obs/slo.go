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
}

// The burn-rate windows (the classic fast/slow pair), each a whole
// number of time buckets, and the burn-rate thresholds (1.0 = burning
// the budget exactly as fast as the objective allows over the window).
// A state fires only when BOTH windows exceed its threshold, so a
// long-past incident (long window still high) or a brief blip (short
// window spike) alone does not page.
const (
	sloShortWindow = 5 * time.Minute
	sloLongWindow  = time.Hour
	sloBucketWidth = 10 * time.Second
	sloWarnBurn    = 2
	sloPageBurn    = 10
	// sloBuckets is the ring size: the long window plus one slot, so the
	// oldest in-window bucket is not reused by the current epoch
	// mid-read.
	sloBuckets = int64(sloLongWindow/sloBucketWidth) + 1
)

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
	cfg     SLOConfig
	budget  float64 // 1 - objective
	buckets [sloBuckets]sloBucket
}

// NewSLOTracker builds a tracker; an Objective outside (0,1) takes the
// default.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	if cfg.Objective <= 0 || cfg.Objective >= 1 {
		cfg.Objective = 0.999
	}
	return &SLOTracker{cfg: cfg, budget: 1 - cfg.Objective}
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
	epoch := now.UnixNano() / int64(sloBucketWidth)
	b := &t.buckets[epoch%sloBuckets]
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
	nowEpoch := now.UnixNano() / int64(sloBucketWidth)
	const shortN, longN = int64(sloShortWindow / sloBucketWidth), int64(sloLongWindow / sloBucketWidth)
	var st SLOStatus
	st.Objective = t.cfg.Objective
	st.LatencyTarget = float64(t.cfg.LatencyTarget) / 1e6
	st.Short.Window = sloShortWindow
	st.Long.Window = sloLongWindow
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
	case st.Short.BurnRate >= sloPageBurn && st.Long.BurnRate >= sloPageBurn:
		st.State = "page"
	case st.Short.BurnRate >= sloWarnBurn && st.Long.BurnRate >= sloWarnBurn:
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
