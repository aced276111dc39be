// Package feedback is the observation side of the online adaptation
// loop: a durable, append-only log of (predicted, measured) execution
// times per co-location scenario. The paper trains its models once on
// an offline homogeneous sweep and concedes (Section IV-B3) that
// accuracy depends on the training data resembling deployment; this
// package captures what deployment actually looks like, so the drift
// monitor can notice when the two diverge and the retraining
// controller can fold real observations back into the training set.
//
// The package exposes a small Store interface with two
// implementations selected by Config: a file-backed group-commit Log
// (Dir set) and a memory-only MemStore (Dir empty).
//
// Durability model (file-backed): the log is a directory of segment
// files. Each record is one line — an 8-hex-digit CRC32 of the JSON
// payload, a space, then the payload. Appends go to the newest
// segment, which rotates after a fixed number of records. Concurrent
// appends are group-committed: callers enqueue encoded records into a
// bounded commit queue and park; a single committer goroutine drains
// the queue, writes one coalesced segment append, issues one fsync,
// and releases the whole cohort — amortising the durability cost
// across the batch. Reads are lock-free: they run against an
// atomically published snapshot of the sealed segments and the
// committed tail offset, so a reader never waits on in-flight commit
// I/O.
//
// On open, all segments are verified; a torn tail (a partial or
// checksum-failing final record of the final segment, the signature of
// a crash mid-append) is truncated away, while corruption anywhere
// earlier is reported as an error rather than silently dropped.
//
// With CompactAfter set, a background compactor folds sealed segments
// into compacted segments carrying SHA-256 chain checksums (each
// compacted segment's chain hash covers its body and the previous
// compacted segment's chain hash), making record tampering, loss or
// reordering in the compacted history tamper-evident. A Retention
// bound drops whole oldest segments once the log exceeds a size or age
// budget.
package feedback

import (
	"errors"
	"fmt"
	"time"
)

// Observation is one feedback record: what a model predicted for a
// scenario and what was actually measured when the scenario ran.
type Observation struct {
	// Model is the registry name of the model that produced the
	// prediction.
	Model string `json:"model"`
	// Generation is the registry generation of that model at predict
	// time, so residuals attribute to the right incumbent across
	// hot-swaps.
	Generation uint64 `json:"generation"`
	// Target is the measured application.
	Target string `json:"target"`
	// CoApps are the co-located application names (one per copy).
	CoApps []string `json:"co_apps,omitempty"`
	// PState is the P-state index of the run.
	PState int `json:"pstate"`
	// PredictedSeconds is the model's predicted execution time.
	PredictedSeconds float64 `json:"predicted_seconds"`
	// MeasuredSeconds is the observed execution time.
	MeasuredSeconds float64 `json:"measured_seconds"`
	// UnixNanos optionally timestamps the measurement (0 if unknown).
	UnixNanos int64 `json:"unix_nanos,omitempty"`
}

// PercentError is the signed percent error of the prediction,
// 100·(predicted−measured)/measured — the residual the drift detector
// monitors.
func (o Observation) PercentError() float64 {
	return 100 * (o.PredictedSeconds - o.MeasuredSeconds) / o.MeasuredSeconds
}

// Validate rejects observations that cannot contribute a residual.
func (o Observation) Validate() error {
	if o.Target == "" {
		return fmt.Errorf("feedback: observation has no target")
	}
	if !(o.MeasuredSeconds > 0) {
		return fmt.Errorf("feedback: measured_seconds %v must be positive", o.MeasuredSeconds)
	}
	if !(o.PredictedSeconds > 0) {
		return fmt.Errorf("feedback: predicted_seconds %v must be positive", o.PredictedSeconds)
	}
	return nil
}

// Retention bounds the file-backed log's disk footprint, enforced by
// the compactor at whole-segment granularity: while the log's total
// size exceeds MaxBytes, or the oldest sealed segment was last written
// longer than MaxAge ago, the oldest sealed segment is dropped. The
// zero value keeps everything.
type Retention struct {
	// MaxBytes bounds the summed size of all segment files (0 = no
	// size bound).
	MaxBytes int64
	// MaxAge bounds how long a sealed segment is kept (0 = no age
	// bound).
	MaxAge time.Duration
}

func (r Retention) enabled() bool { return r.MaxBytes > 0 || r.MaxAge > 0 }

// Config tunes the log.
type Config struct {
	// Dir is the segment directory. Empty selects a memory-only store.
	Dir string
	// MaxSegmentRecords rotates the active segment after this many
	// records. Default 4096.
	MaxSegmentRecords int
	// RingSize bounds the in-memory ring of recent observations kept
	// for cheap drift reports. Default 1024.
	RingSize int
	// Sync fsyncs each group commit. Off by default: the recovery path
	// already tolerates a torn tail, so the only exposure is the OS
	// page cache.
	Sync bool
	// Queue bounds the commit queue: the number of append batches that
	// may wait on the committer before further callers block
	// (backpressure). Default 1024.
	Queue int
	// CommitInterval optionally holds each group commit open for this
	// long after its first batch arrives, trading append latency for
	// larger cohorts. 0 commits as soon as the committer is free
	// (pure piggyback coalescing — usually the right choice).
	CommitInterval time.Duration
	// Direct bypasses the group-commit pipeline: every append performs
	// its own write (and fsync, under Sync) while holding the log
	// lock. This is the pre-group-commit write path, kept as the
	// benchmark baseline and for strictly single-writer embedders.
	Direct bool
	// CompactAfter folds sealed plain segments into one compacted,
	// chain-checksummed segment whenever at least this many have
	// accumulated. 0 disables compaction (the default, preserving
	// exact segment-file layout).
	CompactAfter int
	// Retention bounds the log's disk footprint (requires the
	// compactor; any non-zero Retention enables it). Zero keeps
	// everything.
	Retention Retention
}

func (c *Config) defaults() {
	if c.MaxSegmentRecords == 0 {
		c.MaxSegmentRecords = 4096
	}
	if c.RingSize == 0 {
		c.RingSize = 1024
	}
	if c.Queue == 0 {
		c.Queue = 1024
	}
}

// ErrClosed is returned by appends against a closed store.
var ErrClosed = errors.New("feedback: log closed")

// Open creates or recovers a store: a file-backed group-commit Log
// when cfg.Dir is set, a memory-only MemStore otherwise. For a
// disk-backed log every existing segment is verified: earlier segments
// must be fully intact, compacted segments must satisfy their SHA-256
// chain, and a torn final record of the final segment is truncated
// away (the crash-recovery path). The ring is rebuilt from the newest
// records.
func Open(cfg Config) (Store, error) {
	cfg.defaults()
	if cfg.Dir == "" {
		return newMemStore(cfg), nil
	}
	return openLog(cfg)
}

func validateAll(obs []Observation) error {
	for i, o := range obs {
		if err := o.Validate(); err != nil {
			return fmt.Errorf("feedback: observation %d: %w", i, err)
		}
	}
	return nil
}
