// Package simproc simulates a multicore processor executing co-located
// applications: the substrate standing in for the two Intel Xeon machines
// of Table IV.
//
// The simulator reproduces the two interference mechanisms the paper
// attributes co-location slowdown to — contention for shared last-level
// cache capacity and for DRAM bandwidth — using an epoch-driven analytical
// engine. In each epoch the engine solves a coupled fixed point over the
// co-running applications:
//
//   - LLC occupancy: each application's share of the shared cache is
//     proportional to the rate at which it inserts lines (its miss
//     bandwidth), the steady-state behaviour of a shared LRU cache.
//   - Miss ratios: each application's miss ratio follows its miss-ratio
//     curve evaluated at its current occupancy.
//   - Memory latency: the DRAM controller's loaded latency is a queueing
//     function of the aggregate miss bandwidth.
//   - CPI and instruction rate: each application's cycles-per-instruction
//     combines its base CPI with the exposed fractions of LLC hit and
//     memory latencies at the current P-state frequency.
//
// All four couple to each other; the engine iterates with damping until
// convergence. The result is an execution time whose dependence on the
// co-runners is smoothly nonlinear in exactly the features of Table I —
// the property the paper's models must learn.
//
// RunTraceDriven checks the occupancy rule against measurement: it
// replays synthetic reference streams, one per application and matched
// to its memory-intensity class, through a set-associative LRU model of
// the LLC, and times the measured miss ratios with the same CPI and DRAM
// model.
//
// Hardware performance counters (instructions, cycles, LLC accesses, LLC
// misses) are accumulated per application context and exposed through the
// internal/perfctr PAPI-like backend.
package simproc

import (
	"fmt"
	"math"

	"colocmodel/internal/dram"
	"colocmodel/internal/dvfs"
)

// Spec describes a multicore processor (one row of Table IV).
type Spec struct {
	// Name identifies the processor, e.g. "Xeon E5649".
	Name string
	// Cores is the number of physical cores. Hyperthreading is off
	// throughout, as in the paper (Section II).
	Cores int
	// LLCBytes is the shared last-level cache capacity.
	LLCBytes float64
	// LLCWays is the LLC associativity. Only RunTraceDriven's LRU cache
	// uses it; the analytical engine sees capacity alone.
	LLCWays int
	// LLCHitLatencyCycles is the load-to-use latency of an LLC hit.
	LLCHitLatencyCycles float64
	// PStates is the DVFS operating-point table.
	PStates *dvfs.Table
	// Mem is the memory controller configuration.
	Mem dram.Config
	// CoreCEffW is the effective switched capacitance per core for the
	// dynamic power model (W per V²·GHz).
	CoreCEffW float64
	// UncorePowerW is the frequency-independent package power.
	UncorePowerW float64
}

// Validate checks the specification. Every comparison is written so that
// a NaN fails it, and the unbounded quantities must be finite.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("simproc: spec with empty name")
	}
	if s.Cores <= 0 {
		return fmt.Errorf("simproc: %s has %d cores", s.Name, s.Cores)
	}
	if !positiveFinite(s.LLCBytes) {
		return fmt.Errorf("simproc: %s LLC size must be positive and finite, got %v", s.Name, s.LLCBytes)
	}
	if s.LLCWays <= 0 {
		return fmt.Errorf("simproc: %s LLC ways must be positive", s.Name)
	}
	if !positiveFinite(s.LLCHitLatencyCycles) {
		return fmt.Errorf("simproc: %s LLC hit latency must be positive and finite, got %v", s.Name, s.LLCHitLatencyCycles)
	}
	if s.PStates == nil || s.PStates.Len() == 0 {
		return fmt.Errorf("simproc: %s has no P-states", s.Name)
	}
	if err := s.Mem.Validate(); err != nil {
		return fmt.Errorf("simproc: %s: %w", s.Name, err)
	}
	if !(s.CoreCEffW >= 0 && s.UncorePowerW >= 0) || math.IsInf(s.CoreCEffW, 1) || math.IsInf(s.UncorePowerW, 1) {
		return fmt.Errorf("simproc: %s power parameters must be non-negative and finite", s.Name)
	}
	return nil
}

// positiveFinite reports whether x is in (0, +Inf); NaN is not.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

const mib = 1024.0 * 1024.0

// XeonE5649 returns the 6-core Westmere-EP machine of Table IV:
// 6 cores, 12 MB L3, 1.60–2.53 GHz, triple-channel DDR3-1333.
func XeonE5649() Spec {
	ps, err := dvfs.NewTable([]float64{2.53, 2.26, 2.13, 1.86, 1.73, 1.60}, 0.85, 1.20)
	if err != nil {
		panic(err) // static table
	}
	return Spec{
		Name:                "Xeon E5649",
		Cores:               6,
		LLCBytes:            12 * mib,
		LLCWays:             16,
		LLCHitLatencyCycles: 42,
		PStates:             ps,
		Mem: dram.Config{
			BaseLatencyNs:    65,
			PeakBandwidthGBs: 19, // sustained, not theoretical peak

			Channels:        3,
			BanksPerChannel: 8,
			LineBytes:       64,
		},
		CoreCEffW:    1.9,
		UncorePowerW: 22,
	}
}

// XeonE52697v2 returns the 12-core Ivy Bridge-EP machine of Table IV:
// 12 cores, 30 MB L3, 1.20–2.70 GHz, quad-channel DDR3-1866.
func XeonE52697v2() Spec {
	ps, err := dvfs.NewTable([]float64{2.70, 2.40, 2.10, 1.80, 1.50, 1.20}, 0.80, 1.15)
	if err != nil {
		panic(err) // static table
	}
	return Spec{
		Name:                "Xeon E5-2697v2",
		Cores:               12,
		LLCBytes:            30 * mib,
		LLCWays:             20,
		LLCHitLatencyCycles: 45,
		PStates:             ps,
		Mem: dram.Config{
			BaseLatencyNs:    70,
			PeakBandwidthGBs: 42, // sustained, not theoretical peak

			Channels:        4,
			BanksPerChannel: 8,
			LineBytes:       64,
		},
		CoreCEffW:    1.5,
		UncorePowerW: 30,
	}
}

// Machines returns both Table IV processors, 6-core first.
func Machines() []Spec {
	return []Spec{XeonE5649(), XeonE52697v2()}
}

// MachineByName resolves a machine name to its Table IV processor: the
// 6-core answers to "6core", "e5649", "E5649" and its Name, the 12-core
// to "12core", "e5-2697v2", "E5-2697v2" and its Name.
func MachineByName(name string) (Spec, error) {
	switch name {
	case "6core", "e5649", "E5649":
		return XeonE5649(), nil
	case "12core", "e5-2697v2", "E5-2697v2":
		return XeonE52697v2(), nil
	}
	for _, spec := range Machines() {
		if spec.Name == name {
			return spec, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown machine %q (want 6core or 12core)", name)
}
