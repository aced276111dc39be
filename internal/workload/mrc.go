package workload

import (
	"fmt"
	"math"
)

// PowerLawMRC is the classic power-law ("√2 rule" generalisation) miss
// ratio curve: for allocations below the working set the miss ratio decays
// as (WorkingSet/bytes)^Alpha toward the compulsory floor. It maps an
// effective LLC allocation to the miss ratio an application experiences
// there, the per-application summary the analytical co-location engine
// consumes.
//
//	ratio(c) = Floor + (Knee − Floor) · min(1, (WorkingSet/c))^Alpha
//
// Knee is the miss ratio at a vanishing allocation (every capacity-bound
// access misses); Floor is the compulsory/streaming miss ratio that no
// amount of cache removes. Apps with large working sets and high Knee are
// the paper's "Class I" memory-intensive applications.
type PowerLawMRC struct {
	WorkingSetBytes float64 // capacity at which the curve reaches the floor
	Knee            float64 // miss ratio with ~no cache
	Floor           float64 // compulsory miss ratio with infinite cache
	Alpha           float64 // decay exponent, typically 0.4–1.2
}

// Validate checks curve parameters.
func (m PowerLawMRC) Validate() error {
	if m.WorkingSetBytes <= 0 {
		return fmt.Errorf("MRC working set must be positive, got %v", m.WorkingSetBytes)
	}
	if m.Knee < 0 || m.Knee > 1 || m.Floor < 0 || m.Floor > 1 {
		return fmt.Errorf("MRC ratios must be in [0,1], got knee=%v floor=%v", m.Knee, m.Floor)
	}
	if m.Floor > m.Knee {
		return fmt.Errorf("MRC floor %v exceeds knee %v", m.Floor, m.Knee)
	}
	if m.Alpha <= 0 {
		return fmt.Errorf("MRC alpha must be positive, got %v", m.Alpha)
	}
	return nil
}

// Ratio returns the miss ratio in [0,1] for an allocation of the given
// number of bytes. The curve is continuous and monotone non-increasing in
// the allocation. With pressure p = WorkingSet/bytes: when the working set
// fits (p ≤ 1) only the compulsory floor plus a mild conflict-miss tail
// remains; when it does not (p > 1), capacity misses grow from that point
// toward the knee as 1 − p^(−Alpha).
func (m PowerLawMRC) Ratio(bytes float64) float64 {
	if bytes <= 0 {
		return m.Knee
	}
	p := m.WorkingSetBytes / bytes
	if p <= 1 {
		tail := 0.05 * (m.Knee - m.Floor) * math.Pow(p, m.Alpha)
		return m.Floor + tail
	}
	start := m.Floor + 0.05*(m.Knee-m.Floor)
	span := m.Knee - start
	grown := 1 - math.Pow(p, -m.Alpha) // 0 at p=1, →1 as p→∞
	return start + span*grown
}
