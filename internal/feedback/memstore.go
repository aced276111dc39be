package feedback

import (
	"sync"
	"time"
)

// MemStore is the memory-only Store: an in-memory record slice. It is
// what Open returns when Config.Dir is empty — embedders and tests that
// do not need durability.
type MemStore struct {
	mu     sync.Mutex
	all    []Observation
	closed bool
	st     ingestCounters
}

// AppendBatch stores a batch; if any observation is invalid nothing is
// written. The Commit is immediate: memory writes
// have no queue, write or sync stages.
func (m *MemStore) AppendBatch(obs []Observation) (Commit, error) {
	if err := validateAll(obs); err != nil {
		return Commit{}, err
	}
	if len(obs) == 0 {
		return Commit{}, nil
	}
	now := time.Now()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Commit{}, ErrClosed
	}
	m.all = append(m.all, obs...)
	m.mu.Unlock()
	m.st.observeCommit(len(obs), 0)
	return Commit{Batch: len(obs), Queued: now, WriteStart: now, SyncStart: now, Done: now}, nil
}

// Len reports the number of stored observations.
func (m *MemStore) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.all)
}

// Stats reports cumulative ingest statistics.
func (m *MemStore) Stats() IngestStats { return m.st.snapshot() }

// All returns a copy of every stored observation, oldest first.
func (m *MemStore) All() ([]Observation, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Observation(nil), m.all...), nil
}

// Close marks the store closed; later appends fail with ErrClosed.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
