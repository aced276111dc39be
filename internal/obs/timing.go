package obs

import (
	"strconv"
	"strings"
	"time"
)

// EachServerTiming parses a Server-Timing header value as produced by
// Trace.ServerTiming ("decode;dur=0.012, eval;dur=0.003") and calls fn
// with each stage name and duration in seconds. Entries without a dur
// parameter, and malformed entries, are skipped — the header is
// advisory, never load-bearing.
func EachServerTiming(h string, fn func(stage string, seconds float64)) {
	for _, entry := range strings.Split(h, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, ";")
		if !ok {
			continue
		}
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		for _, param := range strings.Split(rest, ";") {
			k, v, ok := strings.Cut(strings.TrimSpace(param), "=")
			if !ok || strings.TrimSpace(k) != "dur" {
				continue
			}
			ms, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				break
			}
			fn(name, ms/1e3)
			break
		}
	}
}

// ParseServerTiming collects a Server-Timing header into a map of stage
// name to duration in seconds, summing repeated stages.
func ParseServerTiming(h string) map[string]float64 {
	out := make(map[string]float64)
	EachServerTiming(h, func(stage string, seconds float64) { out[stage] += seconds })
	return out
}

// AppendServerTiming appends one entry ("name;dur=1.234") to the
// Server-Timing value being built in b, after a separator when b already
// holds entries. dur has millisecond units and microsecond precision, so
// it is exactly the duration in µs with a point inserted: integer
// arithmetic, because this sits on both tiers' per-request hot path and
// fixed-precision FormatFloat is too slow for it.
func AppendServerTiming(b []byte, name string, d time.Duration) []byte {
	if len(b) > 0 {
		b = append(b, ", "...)
	}
	b = append(append(b, name...), ";dur="...)
	us := (d.Nanoseconds() + 500) / 1000 // round ns to µs
	b = strconv.AppendInt(b, us/1000, 10)
	return append(b, '.', byte('0'+us/100%10), byte('0'+us/10%10), byte('0'+us%10))
}
