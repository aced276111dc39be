package feedback

import (
	"time"

	metrics "colocmodel/internal/obs"
)

// Store is the observation log abstraction the rest of the system
// consumes: serve ingests through it, drift/retrain read through it.
// Implementations: the file-backed group-commit *Log and the
// memory-only *MemStore.
type Store interface {
	// Append stores one observation durably (one-record AppendBatch).
	Append(o Observation) error
	// AppendAll stores a batch atomically with respect to validation:
	// if any observation is invalid, nothing is written.
	AppendAll(obs []Observation) error
	// AppendBatch is AppendAll returning the Commit that made the
	// batch durable — timing the enqueue wait, the coalesced write and
	// the fsync, and reporting how many records the group commit
	// carried in total.
	AppendBatch(obs []Observation) (Commit, error)
	// Len reports the number of committed observations in the store.
	Len() int
	// Segments reports the active segment index (0 for stores without
	// segment files).
	Segments() int
	// Recent returns up to n of the most recent observations, oldest
	// first, from the in-memory ring.
	Recent(n int) []Observation
	// All returns every committed observation, oldest first. It is
	// safe against concurrent appends and compaction.
	All() ([]Observation, error)
	// Stats reports cumulative ingest pipeline statistics.
	Stats() IngestStats
	// Close flushes pending commits and releases resources.
	Close() error
}

// Commit describes the group commit that made an AppendBatch durable.
// Its timestamps bound the pipeline stages: Queued→WriteStart is the
// enqueue wait, WriteStart→SyncStart the coalesced segment write, and
// SyncStart→Done the fsync (SyncStart == Done when the log runs
// without Sync).
type Commit struct {
	// Batch counts the records the whole group commit carried — at
	// least the caller's own records, more when concurrent appends
	// coalesced into the same commit.
	Batch int

	Queued     time.Time
	WriteStart time.Time
	SyncStart  time.Time
	Done       time.Time
}

// IngestStats is a point-in-time snapshot of the ingest pipeline's
// cumulative counters, exposed by serve as Prometheus metrics.
type IngestStats struct {
	// Batches counts group commits; Records counts observations
	// committed; Fsyncs counts fsync(2) calls issued.
	Batches uint64
	Records uint64
	Fsyncs  uint64
	// MaxBatch is the largest group commit seen.
	MaxBatch int
	// QueueDepth is the current number of append batches waiting on
	// the committer.
	QueueDepth int
	// BatchRecords, CommitSeconds and FsyncSeconds are histograms of
	// group-commit size, total commit latency (write start → release)
	// and fsync latency.
	BatchRecords  metrics.HistSnapshot
	CommitSeconds metrics.HistSnapshot
	FsyncSeconds  metrics.HistSnapshot
	// CompactionRuns counts compaction passes that folded segments;
	// CompactedRecords counts records folded into compacted segments.
	CompactionRuns   uint64
	CompactedRecords uint64
	// ReclaimedBytes and RetentionDroppedRecords account for data
	// removed by the retention policy.
	ReclaimedBytes          uint64
	RetentionDroppedRecords uint64
}

var (
	latencyBounds = []float64{
		1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 0.25,
	}
	batchBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
)

// ingestCounters is the shared cumulative-counter block behind
// Store.Stats.
type ingestCounters struct {
	batches, records, fsyncs         metrics.Counter
	maxBatch                         metrics.Gauge
	batchHist, commitHist, fsyncHist *metrics.Histogram
	compactRuns, compactedRecords    metrics.Counter
	reclaimedBytes, retentionRecords metrics.Counter
}

func newIngestCounters() *ingestCounters {
	return &ingestCounters{
		batchHist:  metrics.NewHistogram(batchBounds),
		commitHist: metrics.NewHistogram(latencyBounds),
		fsyncHist:  metrics.NewHistogram(latencyBounds),
	}
}

// observeCommit records one group commit of n records that issued the
// given number of fsyncs between the stage timestamps.
func (c *ingestCounters) observeCommit(n, fsyncs int, writeStart, syncStart, done time.Time) {
	c.batches.Inc()
	c.records.Add(uint64(n))
	c.fsyncs.Add(uint64(fsyncs))
	c.maxBatch.SetMax(int64(n))
	c.batchHist.Observe(float64(n))
	c.commitHist.Observe(done.Sub(writeStart).Seconds())
	if fsyncs > 0 {
		c.fsyncHist.Observe(done.Sub(syncStart).Seconds())
	}
}

func (c *ingestCounters) snapshot(queueDepth int) IngestStats {
	return IngestStats{
		Batches:                 c.batches.Load(),
		Records:                 c.records.Load(),
		Fsyncs:                  c.fsyncs.Load(),
		MaxBatch:                int(c.maxBatch.Load()),
		QueueDepth:              queueDepth,
		BatchRecords:            c.batchHist.Snapshot(),
		CommitSeconds:           c.commitHist.Snapshot(),
		FsyncSeconds:            c.fsyncHist.Snapshot(),
		CompactionRuns:          c.compactRuns.Load(),
		CompactedRecords:        c.compactedRecords.Load(),
		ReclaimedBytes:          c.reclaimedBytes.Load(),
		RetentionDroppedRecords: c.retentionRecords.Load(),
	}
}

// ring is the fixed-size most-recent-observations buffer shared by the
// store implementations. Callers guard it with their own lock.
type ring struct {
	buf  []Observation
	next int
	full bool
}

func newRing(size int) ring { return ring{buf: make([]Observation, size)} }

func (r *ring) push(o Observation) {
	r.buf[r.next] = o
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// recent returns up to n of the newest records, oldest first.
func (r *ring) recent(n int) []Observation {
	size := r.next
	if r.full {
		size = len(r.buf)
	}
	if n > size {
		n = size
	}
	if n <= 0 {
		return nil
	}
	out := make([]Observation, n)
	start := r.next - n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < n; i++ {
		out[i] = r.buf[(start+i)%len(r.buf)]
	}
	return out
}
