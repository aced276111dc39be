package main

import (
	"sort"

	"colocmodel/internal/stats"
)

// midMean is the mean of what lies between the quartiles: the lowest and
// highest quarter of xs (rounded down) are dropped and the rest averaged.
// Like stats.Median and stats.Mean it is NaN on an empty sample, so a
// metric that had no samples fails the finite check instead of reading 0.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	drop := len(s) / 4
	return stats.Mean(s[drop : len(s)-drop])
}

// opKind separates the latency distributions of one phase: each kind is
// summarised on its own so one kind's speed never leaks into another's
// number. kindCal is not an operation but the calibration unit the
// clients run between operations (calibrate.go).
type opKind uint8

const (
	kindPredict opKind = iota
	kindBatch
	kindPlacement
	kindObserve
	kindReadAll
	kindCal
	numKinds
)

// sample is one completed operation: when it ended (ns on the run clock)
// and how long the caller waited for it.
type sample struct {
	end  int64
	lat  int64
	kind opKind
}

// kindSummary is one op kind over one window of a phase.
type kindSummary struct {
	n      int     // samples inside the window
	p50    float64 // ns
	p99    float64 // ns
	p999   float64 // ns
	max    float64 // ns
	perSec float64 // completions per second
}

// window is one stretch of a measured slice, reduced per kind.
type window [numKinds]kindSummary

// summarise reduces, per kind, the samples that ended inside [from, to).
func summarise(logs [][]sample, from, to int64) window {
	var out window
	var lat [numKinds][]float64
	for _, log := range logs {
		for _, s := range log {
			if s.end >= from && s.end < to {
				lat[s.kind] = append(lat[s.kind], float64(s.lat))
			}
		}
	}
	for k := range lat {
		if len(lat[k]) == 0 {
			continue
		}
		sort.Float64s(lat[k])
		out[k] = kindSummary{
			n:      len(lat[k]),
			p50:    stats.Quantile(lat[k], 0.5),
			p99:    stats.Quantile(lat[k], 0.99),
			p999:   stats.Quantile(lat[k], 0.999),
			max:    lat[k][len(lat[k])-1],
			perSec: float64(len(lat[k])) / (float64(to-from) / 1e9),
		}
	}
	return out
}

// over collects one field of one kind across windows, skipping windows in
// which the kind completed nothing.
func over(windows []window, k opKind, field func(kindSummary) float64) []float64 {
	var out []float64
	for _, w := range windows {
		if w[k].n > 0 {
			out = append(out, field(w[k]))
		}
	}
	return out
}

func (k kindSummary) getP50() float64    { return k.p50 }
func (k kindSummary) getP99() float64    { return k.p99 }
func (k kindSummary) getP999() float64   { return k.p999 }
func (k kindSummary) getMax() float64    { return k.max }
func (k kindSummary) getPerSec() float64 { return k.perSec }
