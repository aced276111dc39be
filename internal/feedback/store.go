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
	// AppendBatch stores a batch durably and atomically with respect to
	// validation — if any observation is invalid, nothing is written —
	// and returns the Commit that made it durable, timing the enqueue
	// wait, the coalesced write and the fsync, and reporting how many
	// records the group commit carried in total.
	AppendBatch(obs []Observation) (Commit, error)
	// Len reports the number of committed observations in the store.
	Len() int
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
// cumulative counters.
type IngestStats struct {
	// Batches counts group commits; Records counts observations
	// committed; Fsyncs counts fsync(2) calls issued.
	Batches uint64
	Records uint64
	Fsyncs  uint64
	// MaxBatch is the largest group commit seen.
	MaxBatch int
	// CompactionRuns counts compaction passes that folded segments;
	// CompactedRecords counts records folded into compacted segments.
	CompactionRuns   uint64
	CompactedRecords uint64
	// ReclaimedBytes and RetentionDroppedRecords account for data
	// removed by the retention policy.
	ReclaimedBytes          uint64
	RetentionDroppedRecords uint64
}

// ingestCounters is the shared cumulative-counter block behind
// Store.Stats.
type ingestCounters struct {
	batches, records, fsyncs         metrics.Counter
	maxBatch                         metrics.Gauge
	compactRuns, compactedRecords    metrics.Counter
	reclaimedBytes, retentionRecords metrics.Counter
}

// observeCommit records one group commit of n records that issued the
// given number of fsyncs.
func (c *ingestCounters) observeCommit(n, fsyncs int) {
	c.batches.Inc()
	c.records.Add(uint64(n))
	c.fsyncs.Add(uint64(fsyncs))
	c.maxBatch.SetMax(int64(n))
}

func (c *ingestCounters) snapshot() IngestStats {
	return IngestStats{
		Batches:                 c.batches.Load(),
		Records:                 c.records.Load(),
		Fsyncs:                  c.fsyncs.Load(),
		MaxBatch:                int(c.maxBatch.Load()),
		CompactionRuns:          c.compactRuns.Load(),
		CompactedRecords:        c.compactedRecords.Load(),
		ReclaimedBytes:          c.reclaimedBytes.Load(),
		RetentionDroppedRecords: c.retentionRecords.Load(),
	}
}
