// Command colorouter is the scale-out serving gateway: it forwards every
// call to the least-loaded healthy coloserve backend at the client's
// generation floor, failing over past a backend that cannot answer, and
// coordinates rolling model promotions.
//
// Usage:
//
//	coloserve -model model6.json -listen :8081 &
//	coloserve -model model6.json -listen :8082 &
//	coloserve -model model6.json -listen :8083 &
//	colorouter -backend a=http://localhost:8081 \
//	           -backend b=http://localhost:8082 \
//	           -backend c=http://localhost:8083 -listen :8080
//
// Endpoints:
//
//	POST /v1/predict          least-loaded, failing over
//	POST /v1/predict/batch    forwarded whole, least-loaded
//	POST /v1/placements       forwarded whole, least-loaded, streamed
//	POST /v1/observations     forwarded whole, least-loaded
//	POST /v1/models/reload    rolling promotion across the fleet
//	GET  /v1/models           from the most-promoted backend, failing over
//	GET  /v1/cluster          membership, health and generation state
//	GET  /v1/traces           stitched cross-process traces from the ring
//	GET  /v1/slo              SLO burn-rate verdict (ok | warn | page)
//	GET  /v1/fleet/metrics    merged fleet-wide Prometheus document
//	GET  /healthz             router liveness + fleet health summary
//	GET  /metrics             Prometheus text metrics (colorouter_ prefix)
//
// Clients that set X-Client-ID get per-client generation monotonicity
// across rolling promotions; anonymous clients share one floor. The
// router drains in-flight requests on SIGTERM/SIGINT before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"colocmodel/internal/cluster"
	"colocmodel/internal/obs"
)

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err == nil {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "colorouter:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	listen   string
	drain    time.Duration
	cfg      cluster.Config
	backends backendArgs
}

// parseFlags declares the router's flags on fs and parses args into
// options; request logs go to stderr.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.listen, "listen", ":8080", "address to serve on")
	fs.IntVar(&o.cfg.Replicas, "replicas", 2, "backends a predict or observation may try: failover breadth")
	fs.DurationVar(&o.cfg.ProbeInterval, "probe-interval", 2*time.Second, "health/generation probe interval")
	fs.IntVar(&o.cfg.EjectAfter, "eject-after", 3, "consecutive probe failures before a backend is ejected")
	fs.DurationVar(&o.cfg.RequestTimeout, "timeout", 10*time.Second, "per-request timeout")
	fs.DurationVar(&o.drain, "drain", 15*time.Second, "shutdown drain budget for in-flight requests")
	fs.Var(&o.backends, "backend", "backend to join, as name=url or bare url (repeatable)")
	edge := obs.EdgeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	// cluster.Config reads 0 or below as "use the default", so a
	// negative value would run silently at the default instead.
	for _, name := range []string{"replicas", "probe-interval", "eject-after", "timeout", "drain"} {
		if v := fs.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			return o, fmt.Errorf("-%s %s: must not be negative", name, v)
		}
	}
	ec, err := edge(os.Stderr)
	o.cfg.Logger, o.cfg.TraceRing, o.cfg.SlowThreshold = ec.Logger, ec.TraceRing, ec.SlowThreshold
	o.cfg.SLOObjective, o.cfg.SLOLatencyTarget = ec.SLOObjective, ec.SLOLatencyTarget
	return o, err
}

// backendArgs collects repeated -backend flags.
type backendArgs []string

func (b *backendArgs) String() string { return strings.Join(*b, ",") }
func (b *backendArgs) Set(v string) error {
	*b = append(*b, v)
	return nil
}

// parseBackendArg splits a -backend value into a name and a base URL:
// "name=url" uses the explicit name, a bare URL names the backend after
// its host:port part.
func parseBackendArg(arg string) (name, base string, err error) {
	if i := strings.IndexByte(arg, '='); i >= 0 && !strings.HasPrefix(arg[i+1:], "//") {
		name, base = arg[:i], arg[i+1:]
		if name == "" || base == "" {
			return "", "", fmt.Errorf("bad -backend %q (want name=url)", arg)
		}
		return name, base, nil
	}
	name = strings.TrimPrefix(strings.TrimPrefix(arg, "http://"), "https://")
	name = strings.TrimRight(name, "/")
	if name == "" {
		return "", "", fmt.Errorf("bad -backend %q: cannot derive a backend name", arg)
	}
	return name, arg, nil
}

func run(o options) error {
	if len(o.backends) == 0 {
		return fmt.Errorf("no backends: pass at least one -backend url")
	}
	cfg := o.cfg
	rt := cluster.New(cfg)
	for _, arg := range o.backends {
		name, base, err := parseBackendArg(arg)
		if err != nil {
			return err
		}
		if err := rt.Pool().Add(name, base); err != nil {
			return err
		}
		fmt.Printf("backend %s: %s\n", name, base)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt.Start(ctx)
	fmt.Printf("routing on %s (replicas %d, probe %s, timeout %s, drain %s)\n",
		o.listen, cfg.Replicas, cfg.ProbeInterval, cfg.RequestTimeout, o.drain)
	if err := rt.ListenAndServe(ctx, o.listen, o.drain); err != nil {
		return err
	}
	fmt.Println("drained, exiting")
	return nil
}
