package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/obs"
	"colocmodel/internal/placement"
	"colocmodel/internal/serve"
	"colocmodel/internal/simproc"
)

// deepEvery is how often a reply of each kind is decoded in full and
// compared bit for bit with the same input run through the layer's
// public call. Under -trace that call is also the replay span. Slow
// kinds are sampled more often so a short run still holds a few.
var deepEvery = [numKinds]int{kindPredict: 64, kindBatch: 16, kindPlacement: 8, kindObserve: 16, kindReadAll: 1}

// phase is one closed-loop load family against one in-process handler:
// one client per op stream, each sending its next request only when the
// previous reply has been checked. A phase runs in slices; its clients
// keep their place in their streams from one slice to the next.
type phase struct {
	name    string
	calRef  float64 // reference cost of the calibration unit in this family's loop, ns
	handler http.Handler
	hspan   string // span name of the handler call
	ops     *opSet
	model   *core.Model // the served model: replays and bit-for-bit checks
	clock   time.Time   // run-wide time base of samples and spans
	tr      *tracer     // nil when the span recorder is off
	// afterCall runs after each reply, before the next request (the
	// ingest writer uses it to hang the append span under its request).
	afterCall func(handlerSpan uint32, req uint64)
	// ready extends a warm-up slice until it reports true (capped).
	ready func() bool
	// extra runs beside the clients of every slice until stop is set (the
	// ingest reader).
	extra func(stop *atomic.Bool, out *clientResult)
	// close releases the target.
	close func() error

	clients  []*client
	extraOut clientResult
	logs     []*spanLog // every span log of this phase, shared ones included

	measured     []sliceLog   // the measured slices, in order
	wins         []window     // the measured slices cut into windows, set by cut
	runtime      runtimeDelta // summed over the measured slices
	measuredFrom int64        // start of the first measured slice, ns on the run clock
}

// sliceLog is one measured slice: its span on the run clock and every
// client's samples.
type sliceLog struct {
	from, to int64
	logs     [][]sample
}

// cut divides every measured slice into windows of about the given length
// and reduces each; it runs once, when the last slice is over.
func (p *phase) cut(length time.Duration) {
	for _, sl := range p.measured {
		n := max(1, int((sl.to-sl.from+int64(length)/2)/int64(length)))
		width := (sl.to - sl.from) / int64(n)
		for w := int64(0); w < int64(n); w++ {
			p.wins = append(p.wins, summarise(sl.logs, sl.from+w*width, sl.from+(w+1)*width))
		}
	}
}

// client is one closed-loop client's state across slices.
type client struct {
	index   int
	caller  *caller
	step    int
	seen    [numKinds]int
	lastCal time.Time // end of this client's last calibration unit
	out     clientResult
}

// clientResult is what one client goroutine saw.
type clientResult struct {
	samples   []sample // of the current slice
	attempted int
	failed    int
	failures  []string // first few, for the report

	// Trace-only tallies read off the replies.
	rows, cachedRows int
	stageUS          map[string][]float64 // Server-Timing of sampled predicts
	planRounds       []float64
	planScenarios    []float64
	reads            []snapshotRead // every Store.All that returned records
	readErrors       int            // Store.All calls that returned an error
}

func (r *clientResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 3 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// start prepares the clients. Span logs are made here, before any
// goroutine runs.
func (p *phase) start() {
	for ci := range p.ops.streams {
		var spans *spanLog
		if p.tr != nil {
			spans = p.tr.newLog()
			p.logs = append(p.logs, spans)
		}
		p.clients = append(p.clients, &client{index: ci, caller: newCaller(spans, p.hspan)})
	}
}

// results returns what the extra goroutine and every client saw.
func (p *phase) results() []*clientResult {
	outs := []*clientResult{&p.extraOut}
	for _, c := range p.clients {
		outs = append(outs, &c.out)
	}
	return outs
}

// counts sums what every client attempted and saw fail.
func (p *phase) counts() (attempted, failed int, failures []string) {
	for _, o := range p.results() {
		attempted += o.attempted
		failed += o.failed
		failures = append(failures, o.failures...)
	}
	return attempted, failed, failures
}

// opsMeasured counts the operations completed inside the measured slices.
func (p *phase) opsMeasured() int {
	n := 0
	for _, sl := range p.measured {
		for _, log := range sl.logs {
			for _, s := range log {
				if s.kind != kindCal && s.end >= sl.from && s.end < sl.to {
					n++
				}
			}
		}
	}
	return n
}

// measuredReads returns the reader's snapshot reads that ended inside a
// measured slice.
func (p *phase) measuredReads() []snapshotRead {
	var out []snapshotRead
	for _, r := range p.extraOut.reads {
		for _, sl := range p.measured {
			if r.end >= sl.from && r.end < sl.to {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// spans returns this phase's spans that ended in a measured slice.
func (p *phase) spans() []span {
	var out []span
	for _, l := range p.logs {
		l.mu.Lock()
		for _, s := range l.spans {
			if s.End >= p.measuredFrom {
				out = append(out, s)
			}
		}
		l.mu.Unlock()
	}
	return out
}

type runtimeSnap struct {
	mallocs, bytes, pauseNS uint64
	cpu                     time.Duration
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := runtimeSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, pauseNS: ms.PauseTotalNs}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// runtimeDelta is the process's allocation, GC and CPU cost over measured
// time. Generator and target share the process, so it covers both;
// bench.null_call_* says how much is the generator's.
type runtimeDelta struct {
	mallocs, bytes float64
	pauseMS, cpuS  float64
	wallS          float64
}

func (d *runtimeDelta) add(a, b runtimeSnap, wall time.Duration) {
	d.mallocs += float64(b.mallocs - a.mallocs)
	d.bytes += float64(b.bytes - a.bytes)
	d.pauseMS += float64(b.pauseNS-a.pauseNS) / 1e6
	d.cpuS += (b.cpu - a.cpu).Seconds()
	d.wallS += wall.Seconds()
}

// timedCalUnit runs one calibration unit and records it as a sample.
func timedCalUnit(clock time.Time, out *clientResult) time.Time {
	c0 := time.Now()
	calUnit()
	c1 := time.Now()
	out.samples = append(out.samples, sample{end: int64(c1.Sub(clock)), lat: int64(c1.Sub(c0)), kind: kindCal})
	return c1
}

const (
	// calEvery spaces a client's calibration units: often enough that a
	// quarter-second window holds a thousand, rare enough to cost a
	// cached predict stream under 3 % of its time.
	calEvery     = 200 * time.Microsecond
	maxReadyWait = 3 * time.Second
	// sliceLead is dropped from the head of every slice: the first
	// requests after another family had the processor run on cold caches.
	sliceLead = 10 * time.Millisecond
)

// slice runs the clients for d. A measured slice keeps its samples; a
// warm-up slice is only checked.
func (p *phase) slice(d time.Duration, measured bool) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, c := range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.drive(c, &stop)
		}()
	}
	if p.extra != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.extra(&stop, &p.extraOut)
		}()
	}
	time.Sleep(sliceLead)
	before := readRuntime()
	from := time.Now()
	time.Sleep(d)
	for waited := time.Duration(0); !measured && p.ready != nil && !p.ready() && waited < maxReadyWait; waited += 10 * time.Millisecond {
		time.Sleep(10 * time.Millisecond)
	}
	to := time.Now()
	after := readRuntime()
	stop.Store(true)
	wg.Wait()

	// Samples move out of the clients between slices, so nothing is
	// copied or grown while a slice is being timed.
	sl := sliceLog{from: int64(from.Sub(p.clock)), to: int64(to.Sub(p.clock))}
	for _, o := range p.results() {
		sl.logs = append(sl.logs, o.samples)
		o.samples = make([]sample, 0, len(o.samples)+len(o.samples)/4)
	}
	if !measured {
		return
	}
	if len(p.measured) == 0 {
		p.measuredFrom = sl.from
	}
	p.measured = append(p.measured, sl)
	p.runtime.add(before, after, to.Sub(from))
}

func (p *phase) drive(cl *client, stop *atomic.Bool) {
	c, out := cl.caller, &cl.out
	spans := c.spans
	stream := p.ops.streams[cl.index]
	for ; !stop.Load(); cl.step++ {
		o := &p.ops.pool[stream[cl.step%len(stream)]]
		deep := cl.seen[o.kind]%deepEvery[o.kind] == 0
		cl.seen[o.kind]++
		var req uint64
		var traceparent string
		var root uint32
		if spans != nil {
			req = uint64(cl.index+1)<<40 | uint64(cl.step+1)
			if deep && o.kind == kindPredict {
				// A sampled trace context makes the server time its
				// encode stage into Server-Timing as well.
				traceparent = obs.NewTraceContext().Header()
			}
			root = spans.begin(spanCall, req, 0)
			c.parent = root
		}
		t0 := time.Now()
		status := c.do(p.handler, o.path, o.body, req, traceparent)
		t1 := time.Now()
		if spans != nil {
			spans.end(root)
		}
		out.samples = append(out.samples, sample{end: int64(t1.Sub(p.clock)), lat: int64(t1.Sub(t0)), kind: o.kind})
		out.attempted++
		if p.afterCall != nil {
			p.afterCall(c.lastID, req)
		}
		p.check(c, o, status, deep, req, out)
		if t1.Sub(cl.lastCal) >= calEvery {
			cl.lastCal = timedCalUnit(p.clock, out)
		}
	}
}

var (
	markSeconds  = []byte(`"predicted_seconds":`)
	markCached   = []byte(`"cached":true`)
	markNoErrors = []byte(`"errors":0`)
	markPlan     = []byte(`"plan":{`)
	markAccepted = []byte(fmt.Sprintf(`{"accepted":%d,"rejected":0,`, batchRows))
)

// check verifies one reply. Every reply must be a 200 whose body is a
// framed JSON object carrying what its kind promises; a deep check
// decodes it in full and compares it bit for bit with the same input run
// through the layer's own public call.
func (p *phase) check(c *caller, o *op, status int, deep bool, req uint64, out *clientResult) {
	body := c.w.buf
	if status != http.StatusOK {
		out.fail("%s %s: status %d: %.120s", p.name, o.path, status, body)
		return
	}
	if len(body) < 3 || body[0] != '{' || body[len(body)-2] != '}' || body[len(body)-1] != '\n' {
		out.fail("%s %s: reply is not a JSON object: %.120s", p.name, o.path, body)
		return
	}
	spans := c.spans
	switch o.kind {
	case kindPredict:
		if !bytes.Contains(body, markSeconds) {
			out.fail("%s predict: reply carries no prediction: %.120s", p.name, body)
			return
		}
		if spans != nil {
			out.rows++
			if bytes.Contains(body, markCached) {
				out.cachedRows++
			}
		}
		if !deep {
			return
		}
		var got serve.PredictResponse
		if err := json.Unmarshal(body, &got); err != nil {
			out.fail("%s predict: decoding reply: %v", p.name, err)
			return
		}
		var sent serve.PredictRequest
		if err := json.Unmarshal(o.body, &sent); err != nil {
			out.fail("%s predict: decoding own request: %v", p.name, err)
			return
		}
		sc := toScenario(sent.ScenarioRequest)
		var start int64
		if spans != nil {
			start = spans.now()
		}
		want, err := p.model.Predict(sc)
		if spans != nil {
			// A cached reply never reached the model, so its replay is
			// recorded but not charged to the handler span.
			parent := c.lastID
			if got.Cached {
				parent = 0
			}
			spans.replay(spanCorePredict, req, parent, start, spans.now())
			if out.stageUS == nil {
				out.stageUS = make(map[string][]float64)
			}
			obs.EachServerTiming(c.w.hdr.Get("Server-Timing"), func(stage string, s float64) {
				out.stageUS[stage] = append(out.stageUS[stage], s*1e6)
			})
		}
		if err != nil || math.Float64bits(want) != math.Float64bits(got.PredictedSeconds) {
			out.fail("%s predict %v: served %v, model says %v (%v)", p.name, sc, got.PredictedSeconds, want, err)
		}
	case kindBatch:
		if bytes.Count(body, markSeconds) != batchRows || !bytes.Contains(body, markNoErrors) {
			out.fail("%s batch: reply does not carry %d clean results", p.name, batchRows)
			return
		}
		if spans != nil {
			out.rows += batchRows
			out.cachedRows += bytes.Count(body, markCached)
		}
		if !deep {
			return
		}
		var got serve.BatchResponse
		if err := json.Unmarshal(body, &got); err != nil || len(got.Results) != batchRows {
			out.fail("%s batch: decoding reply: %d results, %v", p.name, len(got.Results), err)
			return
		}
		var sent serve.BatchRequest
		if err := json.Unmarshal(o.body, &sent); err != nil {
			out.fail("%s batch: decoding own request: %v", p.name, err)
			return
		}
		scs := make([]features.Scenario, len(sent.Scenarios))
		for i, sr := range sent.Scenarios {
			scs[i] = toScenario(sr)
		}
		var start int64
		if spans != nil {
			start = spans.now()
		}
		want, err := p.model.PredictScenarios(scs)
		if spans != nil {
			spans.replay(spanCoreBatch, req, c.lastID, start, spans.now())
		}
		if err != nil {
			out.fail("%s batch: model replay: %v", p.name, err)
			return
		}
		for i, it := range got.Results {
			if it.Result == nil || math.Float64bits(it.Result.PredictedSeconds) != math.Float64bits(want[i]) {
				out.fail("%s batch row %d %v: served %+v, model says %v", p.name, i, scs[i], it.Result, want[i])
				return
			}
		}
	case kindPlacement:
		if !bytes.Contains(body, markPlan) {
			out.fail("%s placements: reply carries no plan: %.120s", p.name, body)
			return
		}
		if !deep {
			return
		}
		var got serve.PlacementsResponse
		if err := json.Unmarshal(body, &got); err != nil || got.Plan == nil {
			out.fail("%s placements: decoding reply: %v", p.name, err)
			return
		}
		var sent serve.PlacementsRequest
		if err := json.Unmarshal(o.body, &sent); err != nil {
			out.fail("%s placements: decoding own request: %v", p.name, err)
			return
		}
		var start int64
		if spans != nil {
			start = spans.now()
		}
		want, err := placement.Optimize(context.Background(), placementProblem(p.model, &sent), nil)
		if spans != nil {
			spans.replay(spanOptimize, req, c.lastID, start, spans.now())
		}
		if err != nil {
			out.fail("%s placements: optimizer replay: %v", p.name, err)
			return
		}
		out.planRounds = append(out.planRounds, float64(want.Stats.Rounds))
		out.planScenarios = append(out.planScenarios, float64(want.Stats.Scenarios))
		if math.Float64bits(got.Plan.Objective) != math.Float64bits(want.Plan.Objective) ||
			!reflect.DeepEqual(got.Plan.Assignments, want.Plan.Assignments) || got.Search != want.Stats {
			out.fail("%s placements: served plan (objective %v) differs from the optimizer's (%v)",
				p.name, got.Plan.Objective, want.Plan.Objective)
		}
	case kindObserve:
		if !bytes.HasPrefix(body, markAccepted) {
			out.fail("%s observations: reply does not accept %d: %.120s", p.name, batchRows, body)
			return
		}
		if !deep {
			return
		}
		var got serve.ObservationsResponse
		if err := json.Unmarshal(body, &got); err != nil || got.Accepted != batchRows || len(got.Results) != batchRows {
			out.fail("%s observations: decoding reply: accepted %d, %v", p.name, got.Accepted, err)
		}
	}
}

// placementProblem is the optimizer problem the served program builds
// from a placement request of the shape wideOps generates.
func placementProblem(m *core.Model, req *serve.PlacementsRequest) placement.Problem {
	machines := make([]placement.Machine, req.Machines[0].Count)
	for i := range machines {
		machines[i] = placement.Machine{Spec: simproc.XeonE5649()}
	}
	return placement.Problem{
		Model:    m,
		Machines: machines,
		Apps:     req.Apps,
		QoSBound: req.MaxSlowdown,
		Seed:     req.Seed,
		Beam:     req.Beam,
	}
}
