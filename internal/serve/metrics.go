package serve

import (
	"colocmodel/internal/obs"
)

// Metrics is the serving tier's observability layer: request and error
// counters plus latency histograms per endpoint, and hot-swap and ingest
// counters, declared on one obs.Registry. Handlers hold the handles they
// record into, so the hot path is lock-free atomics; the adaptation loop
// and the SLO tracker add their families to the same registry.
type Metrics struct {
	reg       *obs.Registry
	endpoints *obs.Endpoints

	swaps                                *obs.Counter
	inFlight                             *obs.Gauge
	obsIngested, obsRejected, driftTrips *obs.Counter
}

// latencyBuckets are the histogram upper bounds in seconds, spanning
// single predicts (~µs) through batch fan-outs and placement searches.
var latencyBuckets = []float64{
	1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5,
}

// NewMetrics declares the serving tier's metric families in scrape
// order. modelsLoaded is read at scrape time.
func NewMetrics(modelsLoaded func() float64) *Metrics {
	r := obs.NewRegistry()
	m := &Metrics{reg: r}
	m.endpoints = r.Endpoints("coloserve", "Request latency per endpoint.", latencyBuckets)
	m.swaps = r.Counter("coloserve_model_swaps_total", "Registry hot-swaps performed.")
	r.GaugeFunc("coloserve_models_loaded", "Models currently in the registry.", modelsLoaded)
	m.inFlight = r.Gauge("coloserve_in_flight_requests", "Requests currently being served.")
	m.obsIngested = r.Counter("coloserve_observations_ingested_total", "Observations accepted into the feedback log.")
	m.obsRejected = r.Counter("coloserve_observations_rejected_total", "Observations rejected at ingest.")
	m.driftTrips = r.Counter("coloserve_drift_trips_total", "Drift-detector trips observed at ingest.")
	return m
}

// SwapsRecorded counts n registry hot-swaps at once (a reload swaps
// every disk-backed entry).
func (m *Metrics) SwapsRecorded(n int) {
	if n > 0 {
		m.swaps.Add(uint64(n))
	}
}
