package obs

import (
	"io"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// The telemetry core every tier shares: lock-free metric handles, a
// Registry that scrapes them in declaration order, and the one Writer
// that renders the Prometheus text exposition format (0.0.4) — for
// handles, scrape-time collectors and fleetobs' merged documents alike.

// Label is one metric label pair.
type Label struct {
	Key, Value string
}

// Counter is a monotone event count.
type Counter struct{ v atomic.Uint64 }

func (c *Counter) Inc()         { c.v.Add(1) }
func (c *Counter) Add(n uint64) { c.v.Add(n) }
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an integer level that moves both ways.
type Gauge struct{ v atomic.Int64 }

func (g *Gauge) Add(d int64) { g.v.Add(d) }
func (g *Gauge) Load() int64 { return g.v.Load() }

// SetMax raises the gauge to v if v is higher (a high-water mark).
func (g *Gauge) SetMax(v int64) {
	for {
		old := g.v.Load()
		if v <= old || g.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Histogram is a fixed-bucket histogram with lock-free observation:
// atomic bucket counts, and the sum kept as float64 bits updated by CAS
// so Observe never takes a lock. Buckets have Prometheus le semantics:
// a value exactly on a bound belongs to that bound's bucket.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// NewHistogram returns a histogram over the given ascending upper
// bounds (shared, never modified).
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Writer renders the text exposition format into a buffer. Counter,
// Gauge and Histogram write a family's HELP/TYPE header before its
// first sample, so a family's samples must be written back to back.
type Writer struct {
	buf    []byte
	family string // family whose header was written last
}

// Flush writes the rendered document out. A failed write means the
// scrape client went away, which is not the renderer's to report.
func (w *Writer) Flush(out io.Writer) { _, _ = out.Write(w.buf) }

// HelpPrefix and TypePrefix open a family's two header lines; the
// Writer and fleetobs' parser share them.
const (
	HelpPrefix = "# HELP "
	TypePrefix = "# TYPE "
)

// Header writes a family's HELP (when there is help text) and TYPE
// lines.
func (w *Writer) Header(name, help, typ string) {
	w.family = name
	if help != "" {
		w.buf = append(append(append(append(w.buf, HelpPrefix...), name...), ' '), help...)
		w.buf = append(w.buf, '\n')
	}
	w.buf = append(append(append(append(w.buf, TypePrefix...), name...), ' '), typ...)
	w.buf = append(w.buf, '\n')
}

// Sample writes one sample line. Integral values render as integers,
// so counters read the same before and after a fleet merge.
func (w *Writer) Sample(name string, v float64, labels ...Label) {
	w.buf = append(w.buf, name...)
	if len(labels) > 0 {
		w.buf = append(w.buf, '{')
		for i, l := range labels {
			if i > 0 {
				w.buf = append(w.buf, ',')
			}
			w.buf = append(append(w.buf, l.Key...), '=')
			w.buf = strconv.AppendQuote(w.buf, l.Value)
		}
		w.buf = append(w.buf, '}')
	}
	w.buf = append(w.buf, ' ')
	if v == float64(int64(v)) {
		w.buf = strconv.AppendInt(w.buf, int64(v), 10)
	} else {
		w.buf = strconv.AppendFloat(w.buf, v, 'g', -1, 64)
	}
	w.buf = append(w.buf, '\n')
}

func (w *Writer) typed(name, help, typ string, v float64, labels []Label) {
	if w.family != name {
		w.Header(name, help, typ)
	}
	w.Sample(name, v, labels...)
}

// Counter writes one sample of a counter family.
func (w *Writer) Counter(name, help string, v float64, labels ...Label) {
	w.typed(name, help, "counter", v, labels)
}

// Gauge writes one sample of a gauge family.
func (w *Writer) Gauge(name, help string, v float64, labels ...Label) {
	w.typed(name, help, "gauge", v, labels)
}

// Histogram writes one series of a histogram family: cumulative
// _bucket lines (le last among the labels), _sum and _count.
func (w *Writer) Histogram(name, help string, h *Histogram, labels ...Label) {
	if w.family != name {
		w.Header(name, help, "histogram")
	}
	ls := append(labels[:len(labels):len(labels)], Label{Key: "le"})
	bucket, cum := name+"_bucket", uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		ls[len(labels)].Value = "+Inf"
		if i < len(h.bounds) {
			ls[len(labels)].Value = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		w.Sample(bucket, float64(cum), ls...)
	}
	w.Sample(name+"_sum", math.Float64frombits(h.sumBits.Load()), labels...)
	w.Sample(name+"_count", float64(h.count.Load()), labels...)
}

// Registry is an ordered set of metric declarations: a scrape renders
// them in declaration order. Declare everything before the first
// scrape; declaration is not synchronised with Write.
type Registry struct {
	collectors []func(*Writer)
}

func NewRegistry() *Registry { return &Registry{} }

// Collect declares families whose values are read at scrape time from
// another component's snapshot: f writes them through the Writer.
func (r *Registry) Collect(f func(*Writer)) { r.collectors = append(r.collectors, f) }

// Counter declares an unlabelled counter and returns its handle.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.Collect(func(w *Writer) { w.Counter(name, help, float64(c.Load())) })
	return c
}

// Gauge declares an unlabelled gauge and returns its handle.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := new(Gauge)
	r.GaugeFunc(name, help, func() float64 { return float64(g.Load()) })
	return g
}

// GaugeFunc declares an unlabelled gauge read from f at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.Collect(func(w *Writer) { w.Gauge(name, help, f()) })
}

// Write renders every declaration into one document and writes it out.
func (r *Registry) Write(out io.Writer) {
	var w Writer
	for _, f := range r.collectors {
		f(&w)
	}
	w.Flush(out)
}

// Endpoint is one endpoint's request accounting.
type Endpoint struct {
	Requests, Errors Counter
	Latency          *Histogram
}

// Observe records one request: its latency and whether it failed.
func (e *Endpoint) Observe(d time.Duration, failed bool) {
	e.Requests.Inc()
	if failed {
		e.Errors.Inc()
	}
	e.Latency.Observe(d.Seconds())
}

// Endpoints is the per-endpoint request accounting both HTTP tiers
// keep: <prefix>_requests_total, <prefix>_request_errors_total and the
// <prefix>_request_duration_seconds histogram, labelled by endpoint.
type Endpoints struct {
	prefix, latencyHelp string
	bounds              []float64
	byName              map[string]*Endpoint
}

// Endpoints declares the three per-endpoint families.
func (r *Registry) Endpoints(prefix, latencyHelp string, bounds []float64) *Endpoints {
	es := &Endpoints{prefix: prefix, latencyHelp: latencyHelp, bounds: bounds, byName: make(map[string]*Endpoint)}
	r.Collect(es.collect)
	return es
}

// Endpoint registers an endpoint (once per name) and returns its
// handle, the only way to record; handlers resolve it when they are
// built. Like every declaration it must precede the first scrape.
func (es *Endpoints) Endpoint(name string) *Endpoint {
	e := es.byName[name]
	if e == nil {
		e = &Endpoint{Latency: NewHistogram(es.bounds)}
		es.byName[name] = e
	}
	return e
}

func (es *Endpoints) collect(w *Writer) {
	names := make([]string, 0, len(es.byName))
	for name := range es.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w.Counter(es.prefix+"_requests_total", "Requests received per endpoint.", float64(es.byName[name].Requests.Load()), Label{"endpoint", name})
	}
	for _, name := range names {
		w.Counter(es.prefix+"_request_errors_total", "Failed requests per endpoint.", float64(es.byName[name].Errors.Load()), Label{"endpoint", name})
	}
	for _, name := range names {
		w.Histogram(es.prefix+"_request_duration_seconds", es.latencyHelp, es.byName[name].Latency, Label{"endpoint", name})
	}
}
