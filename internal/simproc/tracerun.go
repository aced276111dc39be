package simproc

import (
	"fmt"

	"colocmodel/internal/workload"
)

// TraceRunResult reports a trace-driven co-location estimate.
type TraceRunResult struct {
	// TargetSeconds is the estimated target execution time.
	TargetSeconds float64
	// MissRatios holds the measured shared-LLC miss ratio per context
	// (target first).
	MissRatios []float64
	// OccupancyFractions holds each context's measured LLC share.
	OccupancyFractions []float64
	// References is the number of trace references replayed.
	References int
}

// RunTraceDriven estimates a co-location's effect by measurement instead
// of the analytical occupancy fixed point: it replays interleaved
// synthetic reference streams through a set-associative LRU model of the
// shared LLC, measures each application's miss ratio and occupancy under
// contention, and feeds the *measured* miss ratios through the same
// CPI/DRAM timing model the analytical engine uses.
//
// The interleaving is iterated: reference streams are merged in proportion
// to each application's current instructions-per-second estimate times its
// LLC access rate, and the IPS estimates are refined from the measured
// miss ratios until the mix stabilises. This is the ground-truth path the
// analytical engine is validated against (slower, but free of the
// occupancy-model approximation): the package tests check that both agree
// on who holds the LLC and on the direction and size of a slowdown.
func (p *Processor) RunTraceDriven(target workload.App, coApps []workload.App, pstate int, refs int, seed uint64) (*TraceRunResult, error) {
	if err := target.Validate(); err != nil {
		return nil, err
	}
	if len(coApps) > p.spec.Cores-1 {
		return nil, fmt.Errorf("simproc: %d co-located apps exceed %d available cores",
			len(coApps), p.spec.Cores-1)
	}
	if refs < 1000 {
		return nil, fmt.Errorf("simproc: need at least 1000 references, got %d", refs)
	}
	st, err := p.spec.PStates.State(pstate)
	if err != nil {
		return nil, err
	}
	apps := append([]workload.App{target}, coApps...)
	for i, a := range apps[1:] {
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("simproc: co-app %d: %w", i, err)
		}
	}

	// Initial IPS guesses from solo CPI at the unloaded memory latency.
	ips := make([]float64, len(apps))
	missRatio := make([]float64, len(apps))
	for i, a := range apps {
		missRatio[i] = a.MRC.Ratio(p.spec.LLCBytes / float64(len(apps)))
		ips[i] = st.FreqGHz * 1e9 / cpiOf(a, missRatio[i], p.spec, st.FreqGHz, p.spec.Mem.BaseLatencyNs)
	}

	const passes = 3
	var llc *lru
	for pass := 0; pass < passes; pass++ {
		if llc, err = newLRU(int(p.spec.LLCBytes), p.spec.Mem.LineBytes, p.spec.LLCWays); err != nil {
			return nil, err
		}
		gens := make([]generator, len(apps))
		weights := make([]int, len(apps))
		// Weight each stream by its LLC access bandwidth (IPS × access
		// rate), normalised to small integers.
		minRate := 0.0
		for i, a := range apps {
			r := ips[i] * a.LLCAccessRate
			if minRate == 0 || (r > 0 && r < minRate) {
				minRate = r
			}
		}
		if minRate <= 0 {
			minRate = 1
		}
		for i, a := range apps {
			g, err := traceGenerator(a, uint64(i)<<50, seed+uint64(i)*104729)
			if err != nil {
				return nil, err
			}
			gens[i] = g
			weights[i] = min(max(int(ips[i]*a.LLCAccessRate/minRate+0.5), 1), 128)
		}
		iv, err := newInterleave(gens, weights)
		if err != nil {
			return nil, err
		}
		for r := 0; r < refs; r++ {
			llc.access(iv.next())
		}
		// Refine miss ratios and IPS from measurement; discard the first
		// half of accesses' cold effects by keeping ratios as measured
		// (adequate for validation purposes).
		totalMissRate := 0.0
		for i, a := range apps {
			if stc := llc.stats(i); stc.accesses > 0 {
				missRatio[i] = stc.missRatio()
			}
			totalMissRate += ips[i] * a.LLCAccessRate * missRatio[i]
		}
		lat := p.mem.Latency(totalMissRate)
		for i, a := range apps {
			ips[i] = st.FreqGHz * 1e9 / cpiOf(a, missRatio[i], p.spec, st.FreqGHz, lat)
		}
	}

	res := &TraceRunResult{
		TargetSeconds: target.Instructions / ips[0],
		References:    refs,
	}
	for i := range apps {
		res.MissRatios = append(res.MissRatios, missRatio[i])
		res.OccupancyFractions = append(res.OccupancyFractions, llc.occupancyFraction(i))
	}
	return res, nil
}

// cpiOf evaluates the shared CPI model for one application at a given
// miss ratio and memory latency.
func cpiOf(a workload.App, missRatio float64, spec Spec, freqGHz, memLatNs float64) float64 {
	hit := (1 - missRatio) * spec.LLCHitLatencyCycles * a.HitExposeFrac
	miss := missRatio * memLatNs * freqGHz * a.MissExposeFrac
	return a.BaseCPI + a.LLCAccessRate*(hit+miss)
}
