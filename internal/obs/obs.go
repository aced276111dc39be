// Package obs is the serving stack's observability core, stdlib-only:
//
//   - Request identity: the Edge both HTTP tiers put every request
//     through adopts or mints a process-unique request ID, opens the root
//     span under the caller's traceparent, and hands both to the handler
//     as an argument (Request), so each layer stamps its spans and its
//     outbound calls with the request that caused the work; the same Edge
//     closes the request's log line, metrics and SLO accounting.
//   - Structured logging: log/slog constructors keyed by a -log-format
//     style selector (json / text / off), so request logs are machine-
//     parseable by default.
//   - Span tracing: a lightweight start/finish tracer recording
//     per-stage timings (decode → eval → encode, batch fan-out,
//     observation ingest, drift checks, retrain attempt stages) as a
//     tree of spans with parent links and attributes.
//   - Trace retention: a bounded ring keeping recent slow or failed
//     traces for GET /v1/traces, so "why was that request slow" is
//     answerable after the fact without a profiler attached.
//   - Server-Timing interchange: completed span timings render into the
//     standard Server-Timing response header, which the loadgen harness
//     parses back into a per-stage latency breakdown.
//
// Everything is nil-safe: a nil *Tracer or nil *Trace makes every
// tracing call a no-op, so disabled observability costs a pointer test
// on the hot path.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync/atomic"
)

// reqPrefix makes request IDs process-unique so IDs minted by different
// server instances do not collide in aggregated logs. It falls back to
// a fixed prefix only if the system's entropy source is unreadable.
var reqPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000-"
	}
	return hex.EncodeToString(b[:]) + "-"
}()

var reqCounter atomic.Uint64

// NewRequestID mints a process-unique request identifier: a random
// per-process prefix plus a monotone counter. It is cheap enough to
// call once per request on the hot path.
func NewRequestID() string {
	var buf [32]byte // prefix (9) + a base-36 uint64 (at most 13)
	b := append(buf[:0], reqPrefix...)
	return string(strconv.AppendUint(b, reqCounter.Add(1), 36))
}
