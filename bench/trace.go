package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"colocmodel/internal/feedback"
)

// Span names: layer (package) dot boundary. Every span is recorded from
// this directory, around a layer's public call; the served packages gain
// no hook.
const (
	spanCall        = "bench.call"            // client: build request, call handler, read reply
	spanServe       = "serve.handler"         // serve.Server.Handler().ServeHTTP
	spanRouter      = "cluster.router"        // cluster.Router.Handler().ServeHTTP
	spanCorePredict = "core.predict"          // replay: Model.Predict
	spanCoreBatch   = "core.predict_batch"    // replay: Model.PredictScenarios
	spanOptimize    = "placement.optimize"    // replay: placement.Optimize
	spanAppend      = "feedback.append_batch" // Store.AppendBatch through the decorator
	spanQueue       = "feedback.queue"        // Commit.Queued → WriteStart
	spanWrite       = "feedback.write"        // Commit.WriteStart → SyncStart
	spanFsync       = "feedback.fsync"        // Commit.SyncStart → Done
	spanReadAll     = "feedback.read_all"     // Store.All
)

// span is one timed interval. Spans of one request share req; parent is
// the id of the span that caused this one (0 for a root). A replay span
// re-runs a request's input through a layer the handler reaches only via
// concrete types: it is that request's child but runs after it, so self
// time subtracts its whole duration instead of an overlap.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps spans in memory until the run ends. Each client owns one
// (its lock is then uncontended); the replica middleware and the store
// decorator share one between server goroutines.
type spanLog struct {
	mu    sync.Mutex
	base  time.Time
	index uint32 // high byte of every id this log hands out
	spans []span
}

func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

// push records a span and returns the id it was given.
func (l *spanLog) push(s span) uint32 {
	l.mu.Lock()
	s.ID = l.index<<24 | uint32(len(l.spans)+1)
	l.spans = append(l.spans, s)
	l.mu.Unlock()
	return s.ID
}

// add records a finished span and returns its id.
func (l *spanLog) add(name string, req uint64, parent uint32, start, end int64) uint32 {
	return l.push(span{Name: name, Req: req, Parent: parent, Start: start, End: end})
}

// begin opens a span whose end is set later, so children recorded in
// between can name it as their parent.
func (l *spanLog) begin(name string, req uint64, parent uint32) uint32 {
	return l.add(name, req, parent, l.now(), 0)
}

func (l *spanLog) end(id uint32) {
	end := l.now()
	l.mu.Lock()
	l.spans[id&0xffffff-1].End = end
	l.mu.Unlock()
}

// replay records a finished replay span.
func (l *spanLog) replay(name string, req uint64, parent uint32, start, end int64) {
	l.push(span{Name: name, Req: req, Parent: parent, Start: start, End: end, Replay: true})
}

// adopt makes an already recorded root span the child of parent.
func (l *spanLog) adopt(id, parent uint32, req uint64) {
	l.mu.Lock()
	s := &l.spans[id&0xffffff-1]
	s.Parent, s.Req = parent, req
	l.mu.Unlock()
}

// tracer hands out span logs that share one clock.
type tracer struct {
	base time.Time
	logs []*spanLog
}

func (t *tracer) newLog() *spanLog {
	l := &spanLog{base: t.base, index: uint32(len(t.logs) + 1)}
	t.logs = append(t.logs, l)
	return l
}

// joinByReq hangs every root span called child under the span called
// parent that carries the same request ID: how a replica's half of a
// routed request, recorded on another goroutine, finds its router span.
func (t *tracer) joinByReq(child, parent string) {
	ids := make(map[uint64]uint32)
	for _, l := range t.logs {
		l.mu.Lock()
		for _, s := range l.spans {
			if s.Name == parent && s.Req != 0 {
				ids[s.Req] = s.ID
			}
		}
		l.mu.Unlock()
	}
	for _, l := range t.logs {
		l.mu.Lock()
		for i := range l.spans {
			if s := &l.spans[i]; s.Name == child && s.Parent == 0 && s.Req != 0 {
				s.Parent = ids[s.Req]
			}
		}
		l.mu.Unlock()
	}
}

// all returns every span recorded so far, log by log.
func (t *tracer) all() []span {
	var out []span
	for _, l := range t.logs {
		l.mu.Lock()
		out = append(out, l.spans...)
		l.mu.Unlock()
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace file: %w", err)
	}
	return f.Close()
}

// timedHandler is the middleware wrapped around each fleet replica
// before it is handed to httptest.NewServer: the backend half of a
// routed request, joined to the router span by the X-Request-ID the
// router forwards.
func timedHandler(h http.Handler, log *spanLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := log.now()
		h.ServeHTTP(w, r)
		end := log.now()
		if req := parseReqID(r.Header.Get("X-Request-ID")); req != 0 {
			log.add(spanServe, req, 0, start, end)
		}
	})
}

// timedStore decorates the observation store handed to the server in
// serve.Adaptation: every AppendBatch becomes a span whose children come
// from the Commit's stage timestamps.
type timedStore struct {
	feedback.Store
	log *spanLog

	mu      sync.Mutex
	commits []feedback.Commit
	last    uint32 // id of the newest append span
}

// adoptLast hangs the newest append span under the handler span of the
// request that caused it. The ingest workload has one writer, so the
// newest append is that request's.
func (s *timedStore) adoptLast(parent uint32, req uint64) {
	s.mu.Lock()
	last := s.last
	s.last = 0
	s.mu.Unlock()
	if last != 0 {
		s.log.adopt(last, parent, req)
	}
}

func (s *timedStore) AppendBatch(obs []feedback.Observation) (feedback.Commit, error) {
	start := s.log.now()
	c, err := s.Store.AppendBatch(obs)
	end := s.log.now()
	if err != nil {
		return c, err
	}
	id := s.log.add(spanAppend, 0, 0, start, end)
	at := func(t time.Time) int64 { return int64(t.Sub(s.log.base)) }
	s.log.add(spanQueue, 0, id, at(c.Queued), at(c.WriteStart))
	s.log.add(spanWrite, 0, id, at(c.WriteStart), at(c.SyncStart))
	s.log.add(spanFsync, 0, id, at(c.SyncStart), at(c.Done))
	s.mu.Lock()
	s.commits = append(s.commits, c)
	s.last = id
	s.mu.Unlock()
	return c, nil
}

// selfTimes returns, for every span called name, its duration minus what
// its children cover: the overlap of
// a nested child, the whole duration of a replay child. With child set,
// only spans that have a child of that name count: layers whose children
// are recorded on a sample of requests, or one op kind among several.
func selfTimes(spans []span, name, child string) []float64 {
	byID := make(map[uint32]span)
	for _, s := range spans {
		if s.Name == name {
			byID[s.ID] = s
		}
	}
	covered := make(map[uint32]int64, len(byID))
	has := make(map[uint32]bool, len(byID))
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		if s.Name == child {
			has[p.ID] = true
		}
		if s.Replay {
			covered[p.ID] += s.dur()
		} else if lo, hi := max(s.Start, p.Start), min(s.End, p.End); hi > lo {
			covered[p.ID] += hi - lo
		}
	}
	var out []float64
	for id, s := range byID {
		if child == "" || has[id] {
			out = append(out, float64(s.dur()-covered[id]))
		}
	}
	return out
}

// durations returns the durations of the spans called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}
