// Package perfctr is the performance-counter access layer of the testing
// environment (Section IV-A2 of the paper). It mirrors the PAPI preset
// model: a portable set of named hardware events that a profiler attaches
// to an application, reads once at completion, and turns into derived
// metrics. The backing "hardware" here is the multicore processor
// simulator, which exposes the same three events the paper's methodology
// consumes — total instructions, last-level cache misses, and last-level
// cache accesses — plus cycles for CPI bookkeeping.
//
// As in the paper, counter values carry no temporal information: they are
// totals over a run, so every derived metric is an average across time.
package perfctr

import "fmt"

// Event identifies a hardware event, in the spirit of PAPI presets.
type Event string

// The preset events used by the methodology. Names follow PAPI.
const (
	// TotIns counts completed instructions (PAPI_TOT_INS).
	TotIns Event = "PAPI_TOT_INS"
	// TotCyc counts core clock cycles (PAPI_TOT_CYC).
	TotCyc Event = "PAPI_TOT_CYC"
	// L3TCM counts last-level (here L3) total cache misses (PAPI_L3_TCM).
	// On architectures whose last level is L2 the same preset maps there;
	// the methodology is last-level-relative (Section IV-A3).
	L3TCM Event = "PAPI_L3_TCM"
	// L3TCA counts last-level total cache accesses (PAPI_L3_TCA).
	L3TCA Event = "PAPI_L3_TCA"
)

// Backend is implemented by hardware (here: the simulator) that can report
// event totals for one measured application context.
type Backend interface {
	// CounterValue returns the running total for ev, or an error if the
	// event is not supported.
	CounterValue(ev Event) (uint64, error)
}

// EventSet accumulates a selected group of events read from a backend,
// following PAPI's create/add/start/stop lifecycle.
type EventSet struct {
	events  []Event
	started bool
	start   map[Event]uint64
	values  map[Event]uint64
	backend Backend
}

// NewEventSet returns an empty event set bound to a backend.
func NewEventSet(b Backend) (*EventSet, error) {
	if b == nil {
		return nil, fmt.Errorf("perfctr: nil backend")
	}
	return &EventSet{
		backend: b,
		start:   make(map[Event]uint64),
		values:  make(map[Event]uint64),
	}, nil
}

// Add registers an event for collection. Adding while started or adding a
// duplicate is an error, matching PAPI semantics.
func (es *EventSet) Add(ev Event) error {
	if es.started {
		return fmt.Errorf("perfctr: cannot add %s to a started set", ev)
	}
	for _, e := range es.events {
		if e == ev {
			return fmt.Errorf("perfctr: event %s already in set", ev)
		}
	}
	if _, err := es.backend.CounterValue(ev); err != nil {
		return fmt.Errorf("perfctr: backend does not support %s: %w", ev, err)
	}
	es.events = append(es.events, ev)
	return nil
}

// Start snapshots current totals so a later Stop yields deltas.
func (es *EventSet) Start() error {
	if es.started {
		return fmt.Errorf("perfctr: set already started")
	}
	if len(es.events) == 0 {
		return fmt.Errorf("perfctr: empty event set")
	}
	for _, ev := range es.events {
		v, err := es.backend.CounterValue(ev)
		if err != nil {
			return err
		}
		es.start[ev] = v
	}
	es.started = true
	return nil
}

// Stop reads final totals and stores the per-event deltas.
func (es *EventSet) Stop() error {
	if !es.started {
		return fmt.Errorf("perfctr: set not started")
	}
	for _, ev := range es.events {
		v, err := es.backend.CounterValue(ev)
		if err != nil {
			return err
		}
		es.values[ev] = v - es.start[ev]
	}
	es.started = false
	return nil
}

// Value returns the delta measured for ev by the last Start/Stop pair.
func (es *EventSet) Value(ev Event) (uint64, error) {
	v, ok := es.values[ev]
	if !ok {
		return 0, fmt.Errorf("perfctr: no measurement for %s", ev)
	}
	return v, nil
}

// Counts is a plain snapshot of the three methodology events plus cycles.
type Counts struct {
	Instructions uint64
	Cycles       uint64
	LLCMisses    uint64
	LLCAccesses  uint64
}

// Collect runs one Start/measure/Stop cycle around fn using a fresh event
// set with all presets, returning the deltas. This is the equivalent of
// wrapping an application in HPCToolkit's hpcrun-flat profiler.
func Collect(b Backend, fn func() error) (Counts, error) {
	es, err := NewEventSet(b)
	if err != nil {
		return Counts{}, err
	}
	for _, ev := range []Event{TotIns, TotCyc, L3TCM, L3TCA} {
		if err := es.Add(ev); err != nil {
			return Counts{}, err
		}
	}
	if err := es.Start(); err != nil {
		return Counts{}, err
	}
	if err := fn(); err != nil {
		return Counts{}, err
	}
	if err := es.Stop(); err != nil {
		return Counts{}, err
	}
	var c Counts
	if c.Instructions, err = es.Value(TotIns); err != nil {
		return Counts{}, err
	}
	if c.Cycles, err = es.Value(TotCyc); err != nil {
		return Counts{}, err
	}
	if c.LLCMisses, err = es.Value(L3TCM); err != nil {
		return Counts{}, err
	}
	if c.LLCAccesses, err = es.Value(L3TCA); err != nil {
		return Counts{}, err
	}
	return c, nil
}

// MemoryIntensity returns LLC misses per instruction, the paper's central
// derived metric (Section IV-A3): the rate at which the application must
// go to main memory.
func (c Counts) MemoryIntensity() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return float64(c.LLCMisses) / float64(c.Instructions)
}

// CMPerCA returns LLC misses per LLC access (targetCM/CA of Table I).
func (c Counts) CMPerCA() float64 {
	if c.LLCAccesses == 0 {
		return 0
	}
	return float64(c.LLCMisses) / float64(c.LLCAccesses)
}

// CAPerIns returns LLC accesses per instruction (targetCA/INS of Table I).
func (c Counts) CAPerIns() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return float64(c.LLCAccesses) / float64(c.Instructions)
}

// CPI returns cycles per instruction.
func (c Counts) CPI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return float64(c.Cycles) / float64(c.Instructions)
}
