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

// Validate checks curve parameters. Every comparison is written so that
// a NaN fails it.
func (m PowerLawMRC) Validate() error {
	if !positiveFinite(m.WorkingSetBytes) {
		return fmt.Errorf("MRC working set must be positive and finite, got %v", m.WorkingSetBytes)
	}
	if !(m.Knee >= 0 && m.Knee <= 1 && m.Floor >= 0 && m.Floor <= 1) {
		return fmt.Errorf("MRC ratios must be in [0,1], got knee=%v floor=%v", m.Knee, m.Floor)
	}
	if m.Floor > m.Knee {
		return fmt.Errorf("MRC floor %v exceeds knee %v", m.Floor, m.Knee)
	}
	if !positiveFinite(m.Alpha) {
		return fmt.Errorf("MRC alpha must be positive and finite, got %v", m.Alpha)
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
	c := m.Compile()
	return c.Ratio(bytes)
}

// CompiledMRC is a PowerLawMRC prepared for repeated evaluation: the
// curve's constant products are taken once, and math.Pow's case analysis
// for ±Alpha is done once. Its Ratio equals PowerLawMRC.Ratio bit for
// bit; PowerLawMRC.Ratio is implemented on it.
type CompiledMRC struct {
	workingSet, knee, floor float64
	tailScale               float64 // 0.05·(Knee−Floor)
	start, span             float64 // Floor+tailScale, Knee−start
	up, down                powPlan // x^Alpha, x^−Alpha
}

// Compile prepares the curve for repeated evaluation.
func (m PowerLawMRC) Compile() CompiledMRC {
	tailScale := 0.05 * (m.Knee - m.Floor)
	start := m.Floor + tailScale
	return CompiledMRC{
		workingSet: m.WorkingSetBytes,
		knee:       m.Knee,
		floor:      m.Floor,
		tailScale:  tailScale,
		start:      start,
		span:       m.Knee - start,
		up:         newPowPlan(m.Alpha),
		down:       newPowPlan(-m.Alpha),
	}
}

// Ratio returns the miss ratio for an allocation of the given number of
// bytes; see PowerLawMRC.Ratio.
func (c *CompiledMRC) Ratio(bytes float64) float64 {
	if bytes <= 0 {
		return c.knee
	}
	p := c.workingSet / bytes
	if p <= 1 {
		return c.floor + c.tailScale*c.up.pow(p)
	}
	grown := 1 - c.down.pow(p) // 0 at p=1, →1 as p→∞
	return c.start + c.span*grown
}

// powPlan evaluates math.Pow(x, y) for one fixed y, bit for bit. It
// replays the split math.Pow makes of y once, at construction: y == 1
// gives x, y == ±0.5 gives Sqrt, and otherwise, with |y| = yi + yf and yf
// moved into (−0.5, 0.5] by Pow's own rule, Exp(yf·Log x), times x when
// yi is 1, inverted when y < 0. Pow reaches the same product through
// Frexp and Ldexp: for x in [2^−500, 2^500] both factors and the product
// are normal, so scaling by a power of two commutes with rounding and
// the two routes agree. Every other case — x outside that range or not
// finite, x == 1, yi ≥ 2, y non-finite or zero — calls math.Pow.
type powPlan struct {
	y     float64
	yf    float64 // the Exp(yf·Log x) exponent
	kind  powKind
	mulX  bool // yi == 1
	recip bool // y < 0
}

type powKind uint8

const (
	powGeneric powKind = iota
	powIdentity
	powSqrt
	powRecipSqrt
	powExpLog
)

// powRange bounds the x the plan evaluates itself.
const (
	powMinX = 0x1p-500
	powMaxX = 0x1p500
)

func newPowPlan(y float64) powPlan {
	pl := powPlan{y: y}
	switch {
	case y == 0 || math.IsNaN(y) || math.IsInf(y, 0):
		return pl
	case y == 1:
		pl.kind = powIdentity
		return pl
	case y == 0.5:
		pl.kind = powSqrt
		return pl
	case y == -0.5:
		pl.kind = powRecipSqrt
		return pl
	}
	yi, yf := math.Modf(math.Abs(y))
	if yf > 0.5 {
		yf--
		yi++
	}
	if yi > 1 {
		return pl
	}
	pl.kind, pl.yf, pl.mulX, pl.recip = powExpLog, yf, yi == 1, y < 0
	return pl
}

// pow returns math.Pow(x, pl.y).
func (pl *powPlan) pow(x float64) float64 {
	if !(x >= powMinX && x <= powMaxX) || x == 1 {
		return math.Pow(x, pl.y)
	}
	switch pl.kind {
	case powIdentity:
		return x
	case powSqrt:
		return math.Sqrt(x)
	case powRecipSqrt:
		return 1 / math.Sqrt(x)
	case powExpLog:
		a := 1.0
		if pl.yf != 0 {
			a = math.Exp(pl.yf * math.Log(x))
		}
		if pl.mulX {
			a *= x
		}
		if pl.recip {
			a = 1 / a
		}
		return a
	}
	return math.Pow(x, pl.y)
}
