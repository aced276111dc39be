package obs

import (
	"fmt"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// Config tunes a Tracer.
type Config struct {
	// Capacity bounds the trace ring (retained traces). Default 256.
	Capacity int
	// SlowThreshold is the retention bar: traces at least this slow are
	// kept, as are failed or force-retained traces. 0 retains every
	// trace (useful for soaks and debugging; expensive in production).
	SlowThreshold time.Duration
}

// Tracer mints traces and retains recent slow/failed ones in a bounded
// ring. A nil *Tracer is a fully disabled tracer: Start returns a nil
// trace and every downstream call is a no-op.
type Tracer struct {
	slow time.Duration

	mu       sync.Mutex
	buf      []*TraceData
	next     int
	seen     uint64
	retained uint64
}

// NewTracer builds a tracer with a bounded retention ring.
func NewTracer(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	return &Tracer{slow: cfg.SlowThreshold, buf: make([]*TraceData, 0, cfg.Capacity)}
}

// SlowThreshold returns the retention bar (0 = retain everything).
func (tr *Tracer) SlowThreshold() time.Duration {
	if tr == nil {
		return 0
	}
	return tr.slow
}

// Start opens a trace. kind groups traces ("http", "retrain"), name is
// the endpoint or trigger, id the request ID. Returns nil on a nil
// tracer, and nil traces no-op everywhere, so callers never branch.
func (tr *Tracer) Start(kind, name, id string) *Trace {
	return tr.StartAt(kind, name, id, time.Now())
}

// StartAt is Start with a caller-supplied start time, for callers that
// already stamped the request's arrival (span offsets are relative to
// it).
func (tr *Tracer) StartAt(kind, name, id string, start time.Time) *Trace {
	if tr == nil {
		return nil
	}
	t := tracePool.Get().(*Trace)
	t.tracer = tr
	t.start = start
	t.id, t.kind, t.name = id, kind, name
	t.tc = NewTraceContext()
	t.parentSpan = [8]byte{}
	t.hasParent = false
	t.retain.Store(false)
	t.spans[0] = SpanData{Name: name, Parent: -1}
	t.nspans.Store(1)
	t.nremotes.Store(0)
	return t
}

// tracePool recycles live traces, so tracing a request allocates
// nothing after warm-up unless the trace is retained (which copies its
// spans into the ring).
var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// keep retains one finished trace, evicting the oldest at capacity.
func (tr *Tracer) keep(data *TraceData) {
	tr.mu.Lock()
	tr.seen++
	tr.retained++
	if len(tr.buf) < cap(tr.buf) {
		tr.buf = append(tr.buf, data)
	} else {
		tr.buf[tr.next] = data
		tr.next = (tr.next + 1) % len(tr.buf)
	}
	tr.mu.Unlock()
}

// skip accounts a finished trace that did not meet the retention bar.
func (tr *Tracer) skip() {
	tr.mu.Lock()
	tr.seen++
	tr.mu.Unlock()
}

// Filter selects traces from a snapshot. Zero fields are unchecked.
type Filter struct {
	// Kind matches TraceData.Kind exactly ("http", "retrain").
	Kind string
	// Name matches the endpoint / trigger exactly.
	Name string
	// MinDuration keeps only traces at least this slow.
	MinDuration time.Duration
	// Limit caps the result count (newest first). 0 = no cap.
	Limit int
}

// FilterFromQuery parses the GET /v1/traces query parameters both tiers
// serve: endpoint (exact match on the traced endpoint), kind ("http" or
// "retrain"), min_ms (minimum duration in milliseconds) and limit
// (newest-first cap). A malformed or negative number is an error whose
// text is fit for a typed 400.
func FilterFromQuery(q url.Values) (Filter, error) {
	f := Filter{Name: q.Get("endpoint"), Kind: q.Get("kind")}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			return Filter{}, fmt.Errorf("bad min_ms %q", v)
		}
		f.MinDuration = time.Duration(ms * 1e6)
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return Filter{}, fmt.Errorf("bad limit %q", v)
		}
		f.Limit = n
	}
	return f, nil
}

// Snapshot returns retained traces matching the filter, newest first.
// The returned TraceData values are shared and must not be mutated.
func (tr *Tracer) Snapshot(f Filter) []*TraceData {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]*TraceData, 0, len(tr.buf))
	// Newest first: walk backwards from the slot before the next
	// overwrite position.
	for i := 0; i < len(tr.buf); i++ {
		j := (tr.next - 1 - i + 2*len(tr.buf)) % len(tr.buf)
		t := tr.buf[j]
		if f.Kind != "" && t.Kind != f.Kind {
			continue
		}
		if f.Name != "" && t.Name != f.Name {
			continue
		}
		if f.MinDuration > 0 && t.DurationMS < float64(f.MinDuration)/1e6 {
			continue
		}
		out = append(out, t)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Stats summarises the tracer for status endpoints.
type Stats struct {
	// Seen counts all finished traces; Retained those kept in the ring
	// over the process lifetime (retention is monotone, the ring is not).
	Seen     uint64 `json:"seen"`
	Retained uint64 `json:"retained"`
	// Capacity is the ring bound.
	Capacity int `json:"capacity"`
	// SlowThresholdMS is the retention bar in milliseconds.
	SlowThresholdMS float64 `json:"slow_threshold_ms"`
}

// Stats snapshots the tracer's counters.
func (tr *Tracer) Stats() Stats {
	if tr == nil {
		return Stats{}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return Stats{
		Seen: tr.seen, Retained: tr.retained,
		Capacity:        cap(tr.buf),
		SlowThresholdMS: float64(tr.slow) / 1e6,
	}
}
