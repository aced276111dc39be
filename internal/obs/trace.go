package obs

import (
	"encoding/hex"
	"sync/atomic"
	"time"
)

// maxSpans bounds one trace's span count so a 4096-slot batch fan-out
// cannot balloon a retained trace; spans past the cap are counted in
// SpansDropped instead of recorded.
const maxSpans = 128

// maxRemotes bounds how many remote span payloads one trace can attach
// (one per proxied call; a scatter-gather touches at most one per
// backend group).
const maxRemotes = 16

// maxStitchedSpans bounds the total span count of a stitched trace
// (local spans plus all spliced remote trees).
const maxStitchedSpans = 512

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanData is the recorded form of one span. Times are nanosecond
// offsets from the trace start, so a span tree is self-contained and
// trivially checked for containment/monotonicity.
type SpanData struct {
	// Name is the stage name ("decode", "eval", "encode", ...).
	Name string `json:"name"`
	// Parent indexes the parent span within the trace; -1 for the root.
	Parent int `json:"parent"`
	// StartNS and EndNS are offsets from the trace start in nanoseconds.
	// EndNS is 0 for a span that never ended (a bug or a panic path).
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Attrs are optional annotations (slot count, model name, ...).
	Attrs []Attr `json:"attrs,omitempty"`
	// Error is set when the span's stage failed.
	Error string `json:"error,omitempty"`
	// Origin names the process a stitched span came from (the backend
	// name); "" for spans recorded locally.
	Origin string `json:"origin,omitempty"`
}

// DurationNS returns the span's recorded extent.
func (s *SpanData) DurationNS() int64 { return s.EndNS - s.StartNS }

// TraceData is a completed trace: what the ring retains and what
// GET /v1/traces serves.
type TraceData struct {
	// ID is the request ID (or a minted ID for background work).
	ID string `json:"id"`
	// TraceID is the cross-process trace identity (32 hex digits),
	// shared by every hop that adopted the same traceparent.
	TraceID string `json:"trace_id,omitempty"`
	// ParentSpanID is the caller's span ID when this trace adopted an
	// incoming trace context; "" for a root trace.
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// Kind groups traces by origin: "http" or "retrain".
	Kind string `json:"kind"`
	// Name is the endpoint (http) or trigger reason (retrain).
	Name string `json:"name"`
	// Status is the HTTP status for http traces, 0 otherwise.
	Status int `json:"status,omitempty"`
	// Error marks a failed request or attempt.
	Error bool `json:"error,omitempty"`
	// Start is the wall-clock start; span offsets are relative to it.
	Start time.Time `json:"start"`
	// DurationMS is the root span's extent in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// Spans is the span tree; Spans[0] is the root.
	Spans []SpanData `json:"spans"`
	// SpansDropped counts spans discarded past the per-trace cap,
	// including remote spans truncated on the wire or at stitch time.
	SpansDropped int `json:"spans_dropped,omitempty"`
}

// remoteAttach is one pending remote span payload: a backend's encoded
// tree waiting to be spliced under a local span. Payloads are decoded
// lazily at Finish, and only for retained traces, so proxying stays
// cheap when the trace is going to be skipped anyway.
type remoteAttach struct {
	parent  int
	origin  string
	payload string
}

// Trace is a live, in-progress trace. Span slots are reserved with an
// atomic counter in a fixed pooled array, so recording a span takes no
// lock: concurrent stages (batch fan-out workers) reserve distinct
// slots and then own them exclusively. Reads that span the whole array
// (ServerTiming, Finish) happen only after the recording goroutines
// have been joined — the contract every handler already satisfies.
// Only a retained trace materialises a TraceData (an immutable copy
// handed to the ring); the Trace itself is always recycled.
type Trace struct {
	tracer *Tracer
	start  time.Time
	id     string
	kind   string
	name   string

	// tc is the trace's cross-process identity, minted fresh at StartAt
	// and overwritten when AdoptContext stitches this hop under a
	// caller's trace. parentSpan holds the caller's span ID when
	// hasParent is set.
	tc         TraceContext
	parentSpan [8]byte
	hasParent  bool

	retain atomic.Bool
	// nspans counts reserved slots; values past maxSpans are drops.
	nspans atomic.Int32
	spans  [maxSpans]SpanData
	// nremotes counts reserved remote-attach slots, same discipline as
	// nspans: concurrent gather workers reserve distinct slots.
	nremotes atomic.Int32
	remotes  [maxRemotes]remoteAttach
}

// Span is a cheap handle on one recorded span (a trace pointer plus an
// index). The zero Span is a no-op, which is how spans behave when
// tracing is disabled or the trace is full.
type Span struct {
	t *Trace
	i int
}

// StartSpan opens a child of the root span. Safe on a nil trace.
func (t *Trace) StartSpan(name string) Span {
	if t == nil {
		return Span{}
	}
	return t.startSpan(name, 0)
}

// Root returns a handle on the trace's root span, so helpers that take
// a parent Span can nest directly under the request. Zero (no-op) on a
// nil trace.
func (t *Trace) Root() Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, i: 0}
}

// StartChild opens a child of this span (e.g. per-slot work under a
// batch fan-out span). Safe on the zero Span.
func (s Span) StartChild(name string) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.startSpan(name, s.i)
}

func (t *Trace) startSpan(name string, parent int) Span {
	off := int64(time.Since(t.start))
	i := int(t.nspans.Add(1)) - 1
	if i >= maxSpans {
		return Span{}
	}
	sp := &t.spans[i]
	sp.Name, sp.Parent, sp.StartNS, sp.EndNS = name, parent, off, 0
	sp.Attrs, sp.Error = nil, ""
	return Span{t: t, i: i}
}

// End closes the span, stamping its end offset.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.spans[s.i].EndNS = int64(time.Since(s.t.start))
}

// Annotate attaches a key/value attribute to the span.
func (s Span) Annotate(key, value string) {
	if s.t == nil {
		return
	}
	sp := &s.t.spans[s.i]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Value: value})
}

// Record adds an already-completed child span with explicit wall-clock
// bounds — for stages measured outside the request goroutine (e.g. the
// feedback log's group-commit pipeline, which times enqueue, write and
// fsync in the committer) and attributed into this trace after the
// fact. Zero or inverted bounds are dropped; bounds before the trace
// start are clamped to it. Safe on the zero Span.
func (s Span) Record(name string, start, end time.Time) {
	if s.t == nil || start.IsZero() || end.Before(start) {
		return
	}
	i := int(s.t.nspans.Add(1)) - 1
	if i >= maxSpans {
		return
	}
	startNS := int64(start.Sub(s.t.start))
	if startNS < 0 {
		startNS = 0
	}
	endNS := int64(end.Sub(s.t.start))
	if endNS <= startNS {
		endNS = startNS + 1
	}
	sp := &s.t.spans[i]
	sp.Name, sp.Parent, sp.StartNS, sp.EndNS = name, s.i, startNS, endNS
	sp.Attrs, sp.Error = nil, ""
}

// Fail marks the span's stage as failed.
func (s Span) Fail(msg string) {
	if s.t == nil {
		return
	}
	s.t.spans[s.i].Error = msg
}

// Annotate attaches a key/value attribute to the trace's root span.
func (t *Trace) Annotate(key, value string) {
	if t == nil {
		return
	}
	Span{t: t, i: 0}.Annotate(key, value)
}

// Retain forces the trace into the ring at Finish regardless of the
// slow threshold (retrain attempts are rare and always worth keeping).
func (t *Trace) Retain() {
	if t == nil {
		return
	}
	t.retain.Store(true)
}

// AdoptContext re-parents the trace under an incoming traceparent: the
// trace takes the caller's trace ID and sampled flag, and records the
// caller's span as its parent. Must be called at ingress, before any
// concurrent span work. Safe on a nil trace.
func (t *Trace) AdoptContext(tc TraceContext) {
	if t == nil || !tc.Valid() {
		return
	}
	t.tc.TraceID = tc.TraceID
	t.tc.Sampled = tc.Sampled
	t.parentSpan = tc.SpanID
	t.hasParent = true
}

// OutboundContext mints the trace context to inject into one proxied
// call: the trace's identity with a fresh span ID naming that call.
// ok=false on a nil trace (tracing disabled — inject nothing).
func (t *Trace) OutboundContext() (tc TraceContext, ok bool) {
	if t == nil {
		return TraceContext{}, false
	}
	return t.tc.Child(), true
}

// AttachRemote records a backend's encoded X-Trace-Spans payload under
// this span. The payload is kept verbatim and decoded only if the trace
// is retained, so attaching costs one slot reservation on the hot path.
// Safe on the zero Span and from concurrent gather workers.
func (s Span) AttachRemote(origin, payload string) {
	if s.t == nil || payload == "" {
		return
	}
	i := int(s.t.nremotes.Add(1)) - 1
	if i >= maxRemotes {
		return
	}
	s.t.remotes[i] = remoteAttach{parent: s.i, origin: origin, payload: payload}
}

// WireSpans encodes the trace's spans recorded so far as an
// X-Trace-Spans header value. Call only after concurrent span work has
// been joined (same contract as ServerTiming); the root span is given a
// provisional end offset if still open. Returns "" on a nil trace.
func (t *Trace) WireSpans() string {
	if t == nil {
		return ""
	}
	n := int(t.nspans.Load())
	recorded := n
	if recorded > maxSpans {
		recorded = maxSpans
	}
	if t.spans[0].EndNS == 0 {
		// Finish re-stamps the real end; this keeps the shipped root
		// span well-formed for the stitcher.
		t.spans[0].EndNS = int64(time.Since(t.start))
	}
	return EncodeRemoteSpans(&RemoteSpans{
		TraceID: t.tc.TraceIDString(),
		ID:      t.id,
		Spans:   t.spans[:recorded],
		Dropped: n - recorded,
	})
}

// Finish closes the root span and hands the trace to its tracer's ring,
// which retains it if it was slow, failed, or force-retained. The trace
// must not be used after Finish. Safe on a nil trace.
func (t *Trace) Finish(status int, failed bool) {
	if t == nil {
		return
	}
	d := time.Since(t.start)
	t.spans[0].EndNS = int64(d)
	nr := int(t.nremotes.Load())
	if nr > maxRemotes {
		nr = maxRemotes
	}
	if t.retain.Load() || failed || d >= t.tracer.slow {
		n := int(t.nspans.Load())
		recorded := n
		if recorded > maxSpans {
			recorded = maxSpans
		}
		// An immutable copy goes to the ring; the live trace is recycled.
		data := &TraceData{
			ID: t.id, Kind: t.kind, Name: t.name,
			TraceID: t.tc.TraceIDString(),
			Status:  status, Error: failed,
			Start: t.start, DurationMS: float64(d) / 1e6,
			Spans:        append([]SpanData(nil), t.spans[:recorded]...),
			SpansDropped: n - recorded,
		}
		if t.hasParent {
			data.ParentSpanID = hex.EncodeToString(t.parentSpan[:])
		}
		for i := 0; i < nr; i++ {
			t.stitch(data, &t.remotes[i])
		}
		t.tracer.keep(data)
	} else {
		t.tracer.skip()
	}
	for i := 0; i < nr; i++ {
		t.remotes[i] = remoteAttach{}
	}
	tracePool.Put(t)
}

// stitch decodes one attached remote payload and splices its span tree
// under the attach span: parents are remapped into the merged index
// space, offsets are shifted to the attach span's start (each process
// records offsets from its own trace start; the proxy span's start is
// the closest shared anchor), and Origin marks the source backend. A
// payload that fails to decode or claims a different trace ID degrades
// to an annotation on the attach span.
func (t *Trace) stitch(data *TraceData, ra *remoteAttach) {
	if ra.payload == "" || ra.parent >= len(data.Spans) {
		return
	}
	anchor := &data.Spans[ra.parent]
	env, err := DecodeRemoteSpans(ra.payload)
	if err != nil {
		anchor.Attrs = append(anchor.Attrs, Attr{Key: "stitch_error", Value: err.Error()})
		return
	}
	if env.TraceID != "" && env.TraceID != data.TraceID {
		anchor.Attrs = append(anchor.Attrs, Attr{Key: "stitch_error", Value: "trace id mismatch"})
		return
	}
	base := len(data.Spans)
	take := len(env.Spans)
	if room := maxStitchedSpans - base; take > room {
		take = room
	}
	if take < 0 {
		take = 0
	}
	data.SpansDropped += env.Dropped + len(env.Spans) - take
	shift := anchor.StartNS
	for j := 0; j < take; j++ {
		sp := env.Spans[j]
		if j == 0 {
			sp.Parent = ra.parent
			if env.ID != "" {
				sp.Attrs = append(sp.Attrs, Attr{Key: "remote_id", Value: env.ID})
			}
		} else {
			sp.Parent += base
		}
		sp.StartNS += shift
		if sp.EndNS != 0 {
			sp.EndNS += shift
		}
		sp.Origin = ra.origin
		data.Spans = append(data.Spans, sp)
	}
}

// ServerTiming renders the trace's completed non-root spans as a
// Server-Timing header value ("decode;dur=0.012, eval;dur=0.003", dur
// in milliseconds), aggregating repeated stage names. Returns "" on a
// nil trace or when no span has finished.
func (t *Trace) ServerTiming() string {
	if t == nil {
		return ""
	}
	// Aggregate into stack-backed arrays: this sits on the per-request
	// hot path.
	var nameBuf [16]string
	var durBuf [16]int64
	names, durs := nameBuf[:0], durBuf[:0]
	n := int(t.nspans.Load())
	if n > maxSpans {
		n = maxSpans
	}
	for i := 1; i < n; i++ {
		sp := &t.spans[i]
		if sp.EndNS == 0 {
			continue
		}
		j := 0
		for ; j < len(names); j++ {
			if names[j] == sp.Name {
				break
			}
		}
		if j == len(names) {
			if len(names) == cap(names) {
				break // more distinct stages than the header can carry
			}
			names = append(names, sp.Name)
			durs = append(durs, 0)
		}
		durs[j] += sp.DurationNS()
	}
	if len(names) == 0 {
		return ""
	}
	var arr [160]byte
	b := arr[:0]
	for i, n := range names {
		b = AppendServerTiming(b, n, time.Duration(durs[i]))
	}
	return string(b)
}
