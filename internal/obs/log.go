package obs

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"time"
)

// LogFormats lists the -log-format selector values NewLogger accepts.
const LogFormats = "json, text, off"

// NewLogger builds a structured logger for a -log-format style
// selector: "json" (machine-parseable, the serving default), "text"
// (slog key=value lines), or "off" / "" (returns a nil logger, which
// the serving tier treats as logging disabled — zero hot-path cost).
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "off", "none", "":
		return nil, nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (want one of: %s)", format, LogFormats)
}

// EdgeFlags registers the five observability flags both binaries share
// on fs and returns the function that, once fs is parsed, validates
// them into an EdgeConfig whose request log goes to logw. One
// convention for all: the default is the flag's default, 0 switches the
// feature off (-slow-ms 0: everything is slow; -slo-latency 0:
// availability only), and negatives and -slo-objective >= 1 are
// rejected.
func EdgeFlags(fs *flag.FlagSet) func(logw io.Writer) (EdgeConfig, error) {
	logFormat := fs.String("log-format", "json", "structured request log format: "+LogFormats)
	slowMS := fs.Float64("slow-ms", 100, "slow-request threshold in ms for warn logs and trace retention (0 = warn on and retain everything)")
	traceRing := fs.Int("trace-ring", 256, "retained-trace ring capacity for /v1/traces (0 disables tracing)")
	sloObjective := fs.Float64("slo-objective", 0.999, "predict success-rate objective for /v1/slo burn-rate alerts (0 disables)")
	sloLatency := fs.Duration("slo-latency", 250*time.Millisecond, "predict latency target counted against the SLO (0 = availability only)")
	return func(logw io.Writer) (EdgeConfig, error) {
		switch {
		case *slowMS < 0:
			return EdgeConfig{}, fmt.Errorf("bad -slow-ms %g: must be >= 0", *slowMS)
		case *traceRing < 0:
			return EdgeConfig{}, fmt.Errorf("bad -trace-ring %d: must be >= 0", *traceRing)
		case *sloObjective < 0 || *sloObjective >= 1:
			return EdgeConfig{}, fmt.Errorf("bad -slo-objective %g: must be in [0, 1)", *sloObjective)
		case *sloLatency < 0:
			return EdgeConfig{}, fmt.Errorf("bad -slo-latency %s: must be >= 0", *sloLatency)
		}
		logger, err := NewLogger(logw, *logFormat, 0)
		return EdgeConfig{
			Logger:           logger,
			SlowThreshold:    offAtZero(time.Duration(*slowMS * float64(time.Millisecond))),
			TraceRing:        offAtZero(*traceRing),
			SLOObjective:     offAtZero(*sloObjective),
			SLOLatencyTarget: offAtZero(*sloLatency),
		}, err
	}
}

// offAtZero maps the flag convention (0 = off) onto EdgeConfig's
// (0 = default, negative = off).
func offAtZero[T int | float64 | time.Duration](v T) T {
	if v == 0 {
		return -1
	}
	return v
}
