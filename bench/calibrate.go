package main

import (
	"encoding/json"
	"sort"
	"sync/atomic"
	"time"
)

// Calibration. The machine this benchmark was sized on is a small shared
// VM on which the same code runs up to 1.6x slower for stretches of a
// fraction of a second to a minute, depending on what its neighbours do.
// No length of run that fits the budget averages that out: two sets of
// runs minutes apart differ by more than any bound worth setting.
//
// So every client runs, between its operations, a fixed unit of work that
// is no part of the repository: one small JSON document through the
// standard library's decoder and encoder, allocation included, which is
// the kind of work the served handlers spend their time on. A window's
// serving times are multiplied, and its rates divided, by
//
//	factor = reference cost of the unit / median cost of the unit in that window
//
// so a window measured while the machine ran 1.4x slow reads as it would
// have on the reference machine. On the sizing machine this took the
// window-to-window spread of predict_p50_us from 12 % to 3 %, and a
// 45 % shift between two sessions to 3 %.
//
// What this costs: the unit shares heap and collector with the served
// program, so a change that allocates much less also makes the unit a
// little cheaper and reads as a slightly smaller gain than it is. The
// uncalibrated medians and the factor are printed beside every run.
//
// A pipeline stage (collect, evaluate, train) is one library call that
// nothing can be interleaved with, so the unit runs beside it instead: a
// ruler goroutine times a few units every millisecond while the pass runs
// (under 4 % of the second processor), and a stage's time on the reference
// machine is the sum, over the ruler's marks inside it, of
//
//	time since the previous mark x reference cost / cost at this mark
//
// Marks before and after a stage do not do: the machine changes pace
// within a stage. The slow stretches come from whoever shares the host's
// cores, and they reach both virtual processors at once, which is why a
// ruler on the other one can follow them; over 200 passes it took the
// spread of a stage from 14-19 % to 5-9 %.

// calDoc has the shape of a predict reply; it is declared here so no
// change to the served packages can alter what the unit costs.
type calDoc struct {
	Model     string   `json:"model"`
	Gen       uint64   `json:"generation"`
	Spec      string   `json:"spec"`
	Target    string   `json:"target"`
	CoApps    []string `json:"co_apps"`
	PState    int      `json:"pstate"`
	Seconds   float64  `json:"predicted_seconds"`
	Slowdown  float64  `json:"predicted_slowdown"`
	Baseline  float64  `json:"baseline_seconds"`
	Cached    bool     `json:"cached"`
	RequestID string   `json:"request_id"`
}

var calBody = []byte(`{"model":"nnf","generation":1,"spec":"neural-net-F","target":"canneal","co_apps":["cg","cg","cg"],"pstate":2,"predicted_seconds":363.71239,"predicted_slowdown":1.2345,"baseline_seconds":294.1,"cached":true,"request_id":"bench-10000000001"}`)

func calUnit() {
	var d calDoc
	if err := json.Unmarshal(calBody, &d); err != nil {
		panic(err) // static input
	}
	if _, err := json.Marshal(&d); err != nil {
		panic(err)
	}
}

// calRefNS is the median cost of the unit inside each family's client
// loop on the sizing machine, in the middle of the range it showed over a
// day (the same loop read 7.1 to 9.6 us on node_hot hours apart), so that
// calibrated values read like that machine's own microseconds. The unit
// runs on whatever cache and collector state the previous reply left,
// which is why it costs more behind a 64-row batch than behind a cached
// predict. The constants only scale the numbers; two commits are always
// compared under the same ones.
var calRefNS = map[string]float64{
	"node_hot":  8500,
	"node_wide": 11500,
	"fleet_hot": 8500,
	"ingest_rw": 17000,
}

// rulerRefNS is the same for a goroutine that marks the unit between
// sleeps: the ruler beside a pipeline pass, and the ingest reader.
const rulerRefNS = 6700

const (
	rulerEvery = time.Millisecond
	rulerUnits = 5 // units per mark; the mark is their median
)

// markUnit runs the unit a few times and returns the median cost, ns.
func markUnit() float64 {
	var ns [rulerUnits]float64
	for i := range ns {
		t := time.Now()
		calUnit()
		ns[i] = float64(time.Since(t).Nanoseconds())
	}
	sort.Float64s(ns[:])
	return ns[rulerUnits/2]
}

// rulerMark is the unit's cost at one moment of a pipeline pass.
type rulerMark struct {
	at time.Time
	ns float64
}

type rulerMarks []rulerMark

// ruler marks the unit's cost on a goroutine of its own until stopped.
type ruler struct {
	halt  atomic.Bool
	done  chan struct{}
	marks rulerMarks
}

func startRuler() *ruler {
	r := &ruler{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for !r.halt.Load() {
			ns := markUnit()
			r.marks = append(r.marks, rulerMark{time.Now(), ns})
			time.Sleep(rulerEvery)
		}
	}()
	return r
}

// stop ends the ruler and returns its marks, oldest first.
func (r *ruler) stop() rulerMarks {
	r.halt.Store(true)
	<-r.done
	return r.marks
}

// refSeconds is how long the span would have taken on the reference
// machine: every stretch between two marks counts at the pace its closing
// mark read, and what follows the last mark at that mark's pace. A span
// the ruler never saw counts as measured.
func (m rulerMarks) refSeconds(s stageSpan) float64 {
	if len(m) == 0 {
		return s.seconds()
	}
	var ref float64
	i := sort.Search(len(m), func(i int) bool { return m[i].at.After(s.from) })
	prev := s.from
	for ; i < len(m) && prev.Before(s.to); i++ {
		at := m[i].at
		if at.After(s.to) {
			at = s.to
		}
		ref += at.Sub(prev).Seconds() * rulerRefNS / m[i].ns
		prev = at
	}
	if prev.Before(s.to) {
		ref += s.to.Sub(prev).Seconds() * rulerRefNS / m[len(m)-1].ns
	}
	return ref
}

// refTimes returns, for every window in which kind k completed something,
// one of its times on the reference machine.
func refTimes(windows []window, refNS float64, k opKind, field func(kindSummary) float64) []float64 {
	var out []float64
	for _, w := range windows {
		if w[k].n > 0 && w[kindCal].n > 0 {
			out = append(out, field(w[k])*refNS/w[kindCal].p50)
		}
	}
	return out
}

// refRates is refTimes for completions per second.
func refRates(windows []window, refNS float64, k opKind) []float64 {
	var out []float64
	for _, w := range windows {
		if w[k].n > 0 && w[kindCal].n > 0 {
			out = append(out, w[k].perSec*w[kindCal].p50/refNS)
		}
	}
	return out
}
