package loadgen

import (
	"fmt"
	"time"
)

// Quantiles summarises a latency distribution in seconds.
type Quantiles struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// Report is the outcome of one load run. All counters cover the
// measured window (after warmup); warmup traffic is accounted
// separately so the gate never judges cold-start latency.
type Report struct {
	// Mode, Concurrency, Seed and TargetRate echo the run configuration.
	Mode        string  `json:"mode"`
	Concurrency int     `json:"concurrency"`
	Seed        uint64  `json:"seed"`
	TargetRate  float64 `json:"target_rate_per_sec,omitempty"`

	// DurationSeconds is the measured window's wall-clock length.
	DurationSeconds float64 `json:"duration_seconds"`
	// Requests counts measured requests; WarmupRequests the excluded
	// prefix.
	Requests       uint64 `json:"requests"`
	WarmupRequests uint64 `json:"warmup_requests"`
	// ThroughputPerSec is measured requests over the measured window.
	ThroughputPerSec float64 `json:"throughput_per_sec"`

	// Errors counts every failed measured request (transport errors plus
	// any non-2xx status); ErrorRate is Errors/Requests.
	Errors    uint64  `json:"errors"`
	ErrorRate float64 `json:"error_rate"`
	// Status breakdown of measured requests.
	Status2xx       uint64 `json:"status_2xx"`
	Status4xx       uint64 `json:"status_4xx"`
	Status5xx       uint64 `json:"status_5xx"`
	TransportErrors uint64 `json:"transport_errors"`
	// WarmupErrors counts failures inside the warmup window.
	WarmupErrors uint64 `json:"warmup_errors"`

	// GenerationRegressions counts predict responses whose registry
	// generation moved backwards within one worker's request sequence —
	// always zero unless the serving tier leaks stale models during
	// hot swap. Tracked only when Config.CheckGenerations is set.
	GenerationRegressions uint64 `json:"generation_regressions"`

	// PerOp counts measured requests by operation kind.
	PerOp map[string]uint64 `json:"per_op"`

	// ServerStages breaks measured requests down by server-side pipeline
	// stage (decode, eval, encode, fanout, ...) as reported in
	// Server-Timing response headers. Absent when the target does not
	// emit the header (tracing disabled).
	ServerStages map[string]StageStat `json:"server_stages,omitempty"`

	// Latency summarises the measured latency distribution. Open-loop
	// latency is measured from each request's scheduled arrival time, so
	// queueing delay under overload is included (no coordinated
	// omission).
	Latency Quantiles `json:"latency_seconds"`
}

// StageStat summarises one server-side stage across the measured
// requests that reported it.
type StageStat struct {
	// Count is how many measured requests reported the stage.
	Count uint64 `json:"count"`
	// TotalSeconds is the summed stage time; MeanSeconds the per-request
	// mean over Count.
	TotalSeconds float64 `json:"total_seconds"`
	MeanSeconds  float64 `json:"mean_seconds"`
}

// SLO is a pass/fail gate over a report. Zero-valued duration bounds
// and MinThroughput are unchecked; MaxErrorRate is checked whenever it
// is non-negative, so the zero value demands a clean error-free run.
type SLO struct {
	// MaxP50/P95/P99/P999 bound the latency quantiles (0 = unchecked).
	MaxP50  time.Duration
	MaxP95  time.Duration
	MaxP99  time.Duration
	MaxP999 time.Duration
	// MaxErrorRate bounds Errors/Requests (negative = unchecked; 0
	// demands zero errors).
	MaxErrorRate float64
	// MinThroughput bounds measured req/s from below (0 = unchecked).
	MinThroughput float64
}

// Gate evaluates the SLO and returns one human-readable violation per
// breached bound (empty = pass).
func (r *Report) Gate(slo SLO) []string {
	var v []string
	bound := func(name string, got float64, max time.Duration) {
		if max > 0 && got > max.Seconds() {
			v = append(v, fmt.Sprintf("latency %s %.3fms exceeds SLO %.3fms",
				name, got*1e3, max.Seconds()*1e3))
		}
	}
	bound("p50", r.Latency.P50, slo.MaxP50)
	bound("p95", r.Latency.P95, slo.MaxP95)
	bound("p99", r.Latency.P99, slo.MaxP99)
	bound("p999", r.Latency.P999, slo.MaxP999)
	if slo.MaxErrorRate >= 0 && r.ErrorRate > slo.MaxErrorRate {
		v = append(v, fmt.Sprintf("error rate %.4f%% exceeds SLO %.4f%% (%d/%d failed)",
			r.ErrorRate*100, slo.MaxErrorRate*100, r.Errors, r.Requests))
	}
	if slo.MinThroughput > 0 && r.ThroughputPerSec < slo.MinThroughput {
		v = append(v, fmt.Sprintf("throughput %.1f req/s below SLO %.1f req/s",
			r.ThroughputPerSec, slo.MinThroughput))
	}
	return v
}

// BenchArtifact is the JSON summary cmd/coloload writes for the
// benchmark trajectory (the BENCH_*.json files CI uploads): one named
// benchmark, its gate verdict, and the full report.
type BenchArtifact struct {
	Bench      string   `json:"bench"`
	Pass       bool     `json:"pass"`
	Violations []string `json:"violations,omitempty"`
	Report     *Report  `json:"report"`
}
