package cluster

import (
	"time"

	"colocmodel/internal/obs"
)

// Metrics is the router's observability layer: per-endpoint request and
// error counters with latency histograms, per-backend proxy accounting
// (requests, errors, sheds, ejections, re-admissions, last observed
// generation), and the hedging counters the tail-latency machinery is
// judged by. Declared on one obs.Registry with a colorouter_ prefix so a
// scrape of router and backends never collides.
type Metrics struct {
	reg       *obs.Registry
	endpoints *obs.Endpoints
	pool      *Pool // its backends hold the per-backend series

	hedges, hedgeWins, promotions, noBackend *obs.Counter
	inFlight                                 *obs.Gauge
}

// backendMetrics is one backend's proxy accounting. It lives in the
// Backend, so recording takes no lock and no lookup, and a backend that
// leaves the pool takes its series with it.
type backendMetrics struct {
	requests, errors, sheds, ejections, readmissions obs.Counter
	generation                                       obs.Gauge // monotone in practice
}

// request records one proxy attempt against the backend.
func (bm *backendMetrics) request(failed bool) {
	bm.requests.Inc()
	if failed {
		bm.errors.Inc()
	}
}

// NewMetrics declares the router's metric families in scrape order.
func NewMetrics(pool *Pool) *Metrics {
	r := obs.NewRegistry()
	m := &Metrics{reg: r, pool: pool}
	m.endpoints = r.Endpoints("colorouter", "Router request latency per endpoint.", latencyBuckets)
	r.Collect(m.collectBackends)
	m.hedges = r.Counter("colorouter_hedges_total", "Hedged backend calls launched.")
	m.hedgeWins = r.Counter("colorouter_hedge_wins_total", "Hedged calls that answered before the primary.")
	m.promotions = r.Counter("colorouter_promotions_total", "Coordinated rolling promotions completed.")
	m.noBackend = r.Counter("colorouter_no_backend_total", "Requests that found no admissible backend.")
	r.GaugeFunc("colorouter_backends_healthy", "Backends currently admitted to routing.",
		func() float64 { return float64(len(pool.Available())) })
	r.GaugeFunc("colorouter_backends_total", "Backends joined to the ring.",
		func() float64 { return float64(len(pool.Members())) })
	m.inFlight = r.Gauge("colorouter_in_flight_requests", "Requests currently being routed.")
	return m
}

func (m *Metrics) collectBackends(w *obs.Writer) {
	backends := m.pool.Backends() // sorted by name
	for _, row := range []struct {
		name, help string
		val        func(*backendMetrics) *obs.Counter
	}{
		{"colorouter_backend_requests_total", "Proxy attempts per backend.", func(b *backendMetrics) *obs.Counter { return &b.requests }},
		{"colorouter_backend_errors_total", "Failed proxy attempts per backend.", func(b *backendMetrics) *obs.Counter { return &b.errors }},
		{"colorouter_backend_sheds_total", "Typed drain sheds answered per backend.", func(b *backendMetrics) *obs.Counter { return &b.sheds }},
		{"colorouter_backend_ejections_total", "Health ejections per backend.", func(b *backendMetrics) *obs.Counter { return &b.ejections }},
		{"colorouter_backend_readmissions_total", "Backoff re-admissions per backend.", func(b *backendMetrics) *obs.Counter { return &b.readmissions }},
	} {
		for _, b := range backends {
			w.Counter(row.name, row.help, float64(row.val(&b.metrics).Load()), obs.Label{Key: "backend", Value: b.Name})
		}
	}
	for _, b := range backends {
		w.Gauge("colorouter_backend_generation", "Last serving generation observed per backend.",
			float64(b.metrics.generation.Load()), obs.Label{Key: "backend", Value: b.Name})
	}
}

// BackendRequests returns a backend's proxy-attempt count (0 for a
// backend not in the pool).
func (m *Metrics) BackendRequests(name string) uint64 {
	if b := m.pool.Get(name); b != nil {
		return b.metrics.requests.Load()
	}
	return 0
}

// Coalesced reports 0: the router no longer coalesces in-flight
// predicts. A shim for bench/target.go, which ROADMAP item 3(d) removes.
func (m *Metrics) Coalesced() uint64 { return 0 }

// Hedges returns the hedge-launch count.
func (m *Metrics) Hedges() uint64 { return m.hedges.Load() }

// latencyBuckets are the latency histogram bounds in seconds:
// geometric ×2 from 50µs to ~1.6s, wide enough to derive a p95 hedge
// delay for both in-process (µs) and networked (ms) fleets.
var latencyBuckets = func() []float64 {
	out := make([]float64, 0, 16)
	for d := 50 * time.Microsecond; d <= 2*time.Second; d *= 2 {
		out = append(out, d.Seconds())
	}
	return out
}()
