package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
)

// TraceparentHeader is the header carrying trace context between the
// router and the backends, in the W3C Trace Context wire format:
//
//	traceparent: 00-<32 hex trace-id>-<16 hex parent-span-id>-<2 hex flags>
//
// Only version 00 and the "sampled" flag bit are understood; anything
// else fails to parse and the hop starts a fresh trace.
const TraceparentHeader = "Traceparent"

// TraceSpansHeader carries a backend's completed span tree back to the
// router on the response (base64 of a bounded JSON envelope, gzipped
// only when that is what fits it under the wire bound, see
// EncodeRemoteSpans), so the router can stitch a cross-process tree.
const TraceSpansHeader = "X-Trace-Spans"

// TraceContext is a decoded traceparent: the trace identity shared by
// every hop plus the span the next hop should parent under.
type TraceContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Sampled bool
}

// traceIDPrefix makes minted trace IDs process-unique the same way
// request IDs are: 8 random bytes per process, 8 counter bytes per
// trace, so minting costs one atomic add and no entropy reads.
var traceIDPrefix = func() [8]byte {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		copy(b[:], "colotrce")
	}
	return b
}()

var traceIDCounter, spanIDCounter atomic.Uint64

// NewTraceContext mints a fresh sampled trace context (a new trace ID
// and a root span ID). Cheap enough for once-per-request use.
func NewTraceContext() TraceContext {
	var tc TraceContext
	copy(tc.TraceID[:8], traceIDPrefix[:])
	binary.BigEndian.PutUint64(tc.TraceID[8:], traceIDCounter.Add(1))
	tc.SpanID = newSpanID()
	tc.Sampled = true
	return tc
}

func newSpanID() [8]byte {
	var id [8]byte
	binary.BigEndian.PutUint32(id[:4], binary.BigEndian.Uint32(traceIDPrefix[:4]))
	binary.BigEndian.PutUint32(id[4:], uint32(spanIDCounter.Add(1)))
	return id
}

// Child derives the context to inject into an outbound call: same trace
// ID and flags, fresh span ID identifying the caller's span for that
// call.
func (tc TraceContext) Child() TraceContext {
	tc.SpanID = newSpanID()
	return tc
}

// Valid reports whether the context carries a usable (non-zero) trace
// ID, per the W3C rule that an all-zero trace-id is invalid.
func (tc TraceContext) Valid() bool {
	return tc.TraceID != [16]byte{}
}

// TraceIDString returns the 32-hex-digit trace ID ("" when invalid).
func (tc TraceContext) TraceIDString() string {
	if !tc.Valid() {
		return ""
	}
	return hex.EncodeToString(tc.TraceID[:])
}

// Header renders the context in traceparent wire format.
func (tc TraceContext) Header() string {
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	hex.Encode(b[3:35], tc.TraceID[:])
	b[35] = '-'
	hex.Encode(b[36:52], tc.SpanID[:])
	b[52], b[53] = '-', '0'
	if tc.Sampled {
		b[54] = '1'
	} else {
		b[54] = '0'
	}
	return string(b[:])
}

// ParseTraceparent decodes a traceparent header value. It accepts only
// version 00 with the exact 55-byte layout; a malformed or all-zero
// value returns ok=false and the hop should mint its own context.
func ParseTraceparent(h string) (tc TraceContext, ok bool) {
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceContext{}, false
	}
	if _, err := hex.Decode(tc.TraceID[:], []byte(h[3:35])); err != nil {
		return TraceContext{}, false
	}
	if _, err := hex.Decode(tc.SpanID[:], []byte(h[36:52])); err != nil {
		return TraceContext{}, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return TraceContext{}, false
	}
	if !tc.Valid() || tc.SpanID == [8]byte{} {
		return TraceContext{}, false
	}
	tc.Sampled = flags[0]&1 != 0
	return tc, true
}
