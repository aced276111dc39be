package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"colocmodel/internal/cluster"
	"colocmodel/internal/core"
	"colocmodel/internal/drift"
	"colocmodel/internal/feedback"
	"colocmodel/internal/serve"
	"colocmodel/internal/stats"
)

const (
	fleetReplicas = 3
	fleetR        = 2 // replica-set size per key
	readPause     = 20 * time.Millisecond
	readTries     = 20
)

// phaseEnv is what every family is built from.
type phaseEnv struct {
	path  string      // the served artefact
	model *core.Model // its loaded copy, for replays and checks
	clock time.Time
	tr    *tracer // nil when the span recorder is off
	tmp   string
}

func nodePhase(name string, ops *opSet, env phaseEnv) (*phase, error) {
	srv, err := newNode(env.path)
	if err != nil {
		return nil, err
	}
	return &phase{
		name: name, calRef: calRefNS[name], handler: srv.Handler(), hspan: spanServe, ops: ops,
		model: env.model, clock: env.clock, tr: env.tr,
		close: func() error { return nil },
	}, nil
}

func fleetPhase(hot *opSet, env phaseEnv) (*phase, *fleet, error) {
	p := &phase{name: "fleet_hot", calRef: calRefNS["fleet_hot"], hspan: spanRouter, ops: hot, model: env.model, clock: env.clock, tr: env.tr}
	var backendSpans *spanLog
	if env.tr != nil {
		backendSpans = env.tr.newLog()
		p.logs = append(p.logs, backendSpans)
	}
	f, err := newFleet(env.path, backendSpans)
	if err != nil {
		return nil, nil, err
	}
	p.handler = f.router.Handler()
	p.close = func() error { f.close(); return nil }
	return p, f, nil
}

func ingestPhase(observe *opSet, env phaseEnv) (*phase, *ingest, error) {
	p := &phase{name: "ingest_rw", calRef: calRefNS["ingest_rw"], hspan: spanServe, ops: observe, model: env.model, clock: env.clock, tr: env.tr}
	var spans *spanLog
	if env.tr != nil {
		spans = env.tr.newLog()
		p.logs = append(p.logs, spans)
	}
	in, err := newIngest(env.path, env.tmp, spans)
	if err != nil {
		return nil, nil, err
	}
	p.handler = in.server.Handler()
	// Measure the log at its steady size: warm up until retention has
	// dropped its first segment.
	p.ready = func() bool { return in.store.Stats().RetentionDroppedRecords > 0 }
	p.extra = in.reader(env.clock, spans)
	if in.timed != nil {
		p.afterCall = in.timed.adoptLast
	}
	p.close = in.close
	return p, in, nil
}

// newNode builds one server over its own registry and copy of the model.
func newNode(path string) (*serve.Server, error) {
	m, err := loadModel(path)
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistry()
	if err := reg.Add(modelName, path, m); err != nil {
		return nil, err
	}
	return serve.New(reg, serve.Config{}), nil
}

// fleet is a cluster.Router with default hedging and coalescing in front
// of three serve.Server replicas on loopback listeners, all in this
// process. The router is driven through its handler; it reaches the
// replicas over real HTTP.
type fleet struct {
	router    *cluster.Router
	names     []string
	listeners []*httptest.Server
	client    *http.Client
	cancel    context.CancelFunc
}

// newFleet starts the fleet. backendSpans, when set, times every replica
// handler call.
func newFleet(path string, backendSpans *spanLog) (*fleet, error) {
	// The router's default transport, built here so close can drop its
	// idle connections.
	client := &http.Client{Transport: &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 128}}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{
		router: cluster.New(cluster.Config{Replicas: fleetR, Client: client}),
		client: client,
		cancel: cancel,
	}
	for i := 0; i < fleetReplicas; i++ {
		srv, err := newNode(path)
		if err != nil {
			f.close()
			return nil, err
		}
		h := srv.Handler()
		if backendSpans != nil {
			h = timedHandler(h, backendSpans)
		}
		ts := httptest.NewServer(h)
		f.listeners = append(f.listeners, ts)
		name := fmt.Sprintf("b%d", i)
		f.names = append(f.names, name)
		if err := f.router.Pool().Add(name, ts.URL); err != nil {
			f.close()
			return nil, err
		}
	}
	f.router.Start(ctx)
	return f, nil
}

func (f *fleet) close() {
	f.cancel()
	for _, ts := range f.listeners {
		ts.Close()
	}
	f.client.CloseIdleConnections()
}

// routerCounters are the router's cumulative counters the per-layer
// ratios are deltas of.
type routerCounters struct {
	backend   []uint64
	hedges    uint64
	coalesced uint64
}

func (f *fleet) counters() routerCounters {
	m := f.router.Metrics()
	c := routerCounters{hedges: m.Hedges(), coalesced: m.Coalesced()}
	for _, n := range f.names {
		c.backend = append(c.backend, m.BackendRequests(n))
	}
	return c
}

// ingest is one server with a disk-backed, fsyncing observation log small
// enough that rotation, compaction and retention all run within a phase,
// and that a snapshot read is short against the time between compactions.
// The issue asked for 2 MiB of retention; a read of that log took about
// as long as a compaction cycle, so whether a read met none, one or two
// compactions split its times into modes with the median between them,
// and the ten reads a second a run had room for could not place it
// within 20 %. At 1 MiB a read takes a third of that, two reads in three
// meet no compaction, and the median sits inside that mode.
type ingest struct {
	server *serve.Server
	store  feedback.Store
	timed  *timedStore // nil when the span recorder is off
	dir    string
}

func newIngest(path, tmp string, spans *spanLog) (*ingest, error) {
	srv, err := newNode(path)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "obslog-")
	if err != nil {
		return nil, fmt.Errorf("creating observation log dir: %w", err)
	}
	store, err := feedback.Open(feedback.Config{
		Dir:               dir,
		Sync:              true,
		MaxSegmentRecords: 1024,
		CompactAfter:      4,
		Retention:         feedback.Retention{MaxBytes: 1 << 20},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("opening observation log: %w", err)
	}
	in := &ingest{server: srv, store: store, dir: dir}
	log := store
	if spans != nil {
		in.timed = &timedStore{Store: store, log: spans}
		log = in.timed
	}
	// The drift monitor cannot trip: this workload measures the log, not
	// retraining.
	mon := drift.NewMonitor(drift.Config{Lambda: 1e18, MinSamples: 1 << 30})
	if err := srv.EnableAdaptation(serve.Adaptation{Log: log, Monitor: mon}); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func (in *ingest) close() error {
	err := in.store.Close()
	os.RemoveAll(in.dir)
	return err
}

// snapshotRead is one Store.All() that returned records.
type snapshotRead struct {
	end     int64   // ns on the run clock
	ns      float64 // how long the reader waited
	records int
	unitNS  float64 // what the calibration unit cost the reader right after
}

// readallRecords is the log size readall_p50_ms is quoted for. Retention
// drops a compacted segment of 4096 records at a time from a log that
// holds some 5100 at most, so a read returns anything from 1000 to 5100
// records and takes that much longer or shorter; a read's time is
// therefore taken per record and quoted for this many.
const readallRecords = 4096

// refMS is the read's time on the reference machine for a log of
// readallRecords records, in milliseconds. The reader is a goroutine of
// its own, next to a writer, a committer and a compactor on two
// processors, so it is brought there by its own reading of the unit and
// not by the writer's.
func (r snapshotRead) refMS() float64 {
	return r.ns / float64(r.records) * readallRecords * rulerRefNS / r.unitNS / 1e6
}

// reader is the ingest workload's second client: a snapshot reader doing
// what retraining does, Store.All(), with a short pause between reads.
// One read is one operation. At the parent commit All() can lose a race
// with the compactor and return "no such file"; the driver's contract
// admits no workload with failing operations, so the reader does what a
// caller must do today and asks again. Every such error is counted in
// out.readErrors (feedback.read_failures) and its time stays in the
// read's latency; the read fails only when readTries calls in a row did.
func (in *ingest) reader(clock time.Time, spans *spanLog) func(*atomic.Bool, *clientResult) {
	return func(stop *atomic.Bool, out *clientResult) {
		for !stop.Load() {
			t0 := time.Now()
			var all []feedback.Observation
			var err error
			for try := 0; try < readTries; try++ {
				s0 := time.Now()
				all, err = in.store.All()
				if spans != nil {
					spans.add(spanReadAll, 0, 0, int64(s0.Sub(clock)), int64(time.Since(clock)))
				}
				if err == nil {
					break
				}
				out.readErrors++
			}
			t1 := time.Now()
			out.attempted++
			if err != nil {
				out.fail("ingest_rw Store.All, %d calls in a row: %v", readTries, err)
			} else {
				out.samples = append(out.samples, sample{end: int64(t1.Sub(clock)), lat: int64(t1.Sub(t0)), kind: kindReadAll})
				if len(all) > 0 {
					out.reads = append(out.reads, snapshotRead{
						end: int64(t1.Sub(clock)), ns: float64(t1.Sub(t0)), records: len(all), unitNS: markUnit(),
					})
				}
			}
			time.Sleep(readPause)
		}
	}
}

// wireNullRTT is the keep-alive loopback round trip to a no-op handler
// in this process, in microseconds: the floor under every routed request
// that no change to the repository can move.
func wireNullRTT(calls int) (float64, error) {
	ts := httptest.NewServer(nullHandler)
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	body := []byte(`{"target":"canneal","co_apps":["cg","cg"],"pstate":0}`)
	var us []float64
	for i := 0; i < calls+calls/10; i++ {
		start := time.Now()
		resp, err := client.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, fmt.Errorf("null round trip: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("null round trip: %w", err)
		}
		if i >= calls/10 {
			us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	return stats.Median(us), nil
}
