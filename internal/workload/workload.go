// Package workload defines the application models standing in for the
// eleven PARSEC and NAS benchmark applications of Table III. Each
// application is characterised by the quantities that determine its memory
// behaviour on a multicore processor: instruction count, base (all-hit)
// CPI, last-level cache access rate, a miss-ratio curve describing how its
// miss ratio responds to the LLC capacity it effectively receives, and a
// memory-level-parallelism factor describing how much of each miss's
// latency stalls the core.
//
// The paper groups applications into four memory-intensity classes whose
// baseline memory intensities (LLC misses per instruction) differ by
// orders of magnitude; the parameters here are calibrated to reproduce
// that structure (verified by tests and reported by Table III of
// cmd/coloexp).
package workload

import (
	"fmt"
	"math"
	"sort"
)

// Suite identifies the benchmark suite an application is drawn from.
type Suite string

const (
	// PARSEC marks applications from the PARSEC suite, "(P)" in Table III.
	PARSEC Suite = "PARSEC"
	// NAS marks applications from the NAS parallel benchmarks, "(N)".
	NAS Suite = "NAS"
)

// Class is a memory-intensity class from Table III. ClassI applications
// are the most memory intensive (most memory bound); ClassIV the least.
type Class int

const (
	// ClassI is the most memory-intensive class.
	ClassI Class = iota + 1
	// ClassII is moderately memory intensive.
	ClassII
	// ClassIII is mildly memory intensive.
	ClassIII
	// ClassIV is CPU bound.
	ClassIV
)

// String renders the class in the paper's Roman-numeral notation.
func (c Class) String() string {
	switch c {
	case ClassI:
		return "Class I"
	case ClassII:
		return "Class II"
	case ClassIII:
		return "Class III"
	case ClassIV:
		return "Class IV"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// App is a synthetic application model.
type App struct {
	// Name is the benchmark name, e.g. "cg" or "canneal".
	Name string
	// Suite is the benchmark suite of origin.
	Suite Suite
	// Class is the memory-intensity class of Table III.
	Class Class

	// Instructions is the total dynamic instruction count of one run.
	Instructions float64
	// BaseCPI is the cycles-per-instruction with an ideal memory system
	// (every LLC access a hit with no exposed latency).
	BaseCPI float64
	// LLCAccessRate is LLC accesses per instruction (the baseline
	// targetCA/INS of Table I): the rate at which references miss the
	// private levels and reach the shared LLC.
	LLCAccessRate float64
	// MRC maps an effective LLC allocation to this application's miss
	// ratio there.
	MRC PowerLawMRC
	// MissExposeFrac is the fraction of each LLC-miss latency that
	// stalls the pipeline (1/MLP): lower values model better
	// memory-level parallelism / prefetching.
	MissExposeFrac float64
	// HitExposeFrac is the fraction of the LLC hit latency exposed.
	HitExposeFrac float64
	// PhaseAmplitude scales a slow sinusoidal modulation of the access
	// rate across execution, modelling the phase behaviour of [SaS13].
	// 0 disables phases; 0.2 means ±20 %.
	PhaseAmplitude float64
}

// Validate checks the model parameters. Every comparison is written so
// that a NaN fails it, and the unbounded quantities must be finite.
func (a App) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("workload: app with empty name")
	}
	if a.Suite != PARSEC && a.Suite != NAS {
		return fmt.Errorf("workload: %s has unknown suite %q", a.Name, a.Suite)
	}
	if a.Class < ClassI || a.Class > ClassIV {
		return fmt.Errorf("workload: %s has invalid class %d", a.Name, a.Class)
	}
	if !positiveFinite(a.Instructions) {
		return fmt.Errorf("workload: %s instructions must be positive and finite, got %v", a.Name, a.Instructions)
	}
	if !positiveFinite(a.BaseCPI) {
		return fmt.Errorf("workload: %s base CPI must be positive and finite, got %v", a.Name, a.BaseCPI)
	}
	if !(a.LLCAccessRate >= 0 && a.LLCAccessRate <= 1) {
		return fmt.Errorf("workload: %s LLC access rate %v out of [0,1]", a.Name, a.LLCAccessRate)
	}
	if err := a.MRC.Validate(); err != nil {
		return fmt.Errorf("workload: %s: %w", a.Name, err)
	}
	if !(a.MissExposeFrac > 0 && a.MissExposeFrac <= 1) {
		return fmt.Errorf("workload: %s miss expose fraction %v out of (0,1]", a.Name, a.MissExposeFrac)
	}
	if !(a.HitExposeFrac >= 0 && a.HitExposeFrac <= 1) {
		return fmt.Errorf("workload: %s hit expose fraction %v out of [0,1]", a.Name, a.HitExposeFrac)
	}
	if !(a.PhaseAmplitude >= 0 && a.PhaseAmplitude <= 0.5) {
		return fmt.Errorf("workload: %s phase amplitude %v out of [0,0.5]", a.Name, a.PhaseAmplitude)
	}
	return nil
}

// positiveFinite reports whether x is in (0, +Inf); NaN is not.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Scaled returns a copy of the application with a larger (or smaller)
// problem size, in the spirit of the NAS benchmark classes (A -> B -> C
// scale both work and data). Instructions scale linearly with factor and
// the working set with factor^(2/3) — the surface-to-volume relation of
// the 3-D grid codes that dominate the suite. The name gains a suffix so
// baselines of different sizes coexist in one dataset.
func (a App) Scaled(suffix string, factor float64) (App, error) {
	if !positiveFinite(factor) {
		return App{}, fmt.Errorf("workload: scale factor must be positive and finite, got %v", factor)
	}
	out := a
	out.Name = a.Name + suffix
	out.Instructions = a.Instructions * factor
	out.MRC.WorkingSetBytes = a.MRC.WorkingSetBytes * math.Pow(factor, 2.0/3.0)
	return out, nil
}

const (
	kib = 1024.0
	mib = 1024 * kib
)

// apps is the registry of the eleven Table III applications. Instruction
// counts are scaled so baseline execution times on the simulated Xeons
// land in the paper's reported 150–1000 s span.
var apps = []App{
	// ---- Class I: most memory intensive (~1e-2 misses/instruction) ----
	{
		Name: "cg", Suite: NAS, Class: ClassI,
		Instructions: 3.2e11, BaseCPI: 0.70, LLCAccessRate: 0.065,
		MRC:            PowerLawMRC{WorkingSetBytes: 256 * mib, Knee: 0.85, Floor: 0.30, Alpha: 0.50},
		MissExposeFrac: 0.18, HitExposeFrac: 0.20, PhaseAmplitude: 0.05,
	},
	{
		Name: "streamcluster", Suite: PARSEC, Class: ClassI,
		Instructions: 4.2e11, BaseCPI: 0.65, LLCAccessRate: 0.052,
		MRC:            PowerLawMRC{WorkingSetBytes: 192 * mib, Knee: 0.90, Floor: 0.40, Alpha: 0.45},
		MissExposeFrac: 0.15, HitExposeFrac: 0.20, PhaseAmplitude: 0.04,
	},
	{
		Name: "mg", Suite: NAS, Class: ClassI,
		Instructions: 2.8e11, BaseCPI: 0.75, LLCAccessRate: 0.045,
		MRC:            PowerLawMRC{WorkingSetBytes: 320 * mib, Knee: 0.80, Floor: 0.35, Alpha: 0.55},
		MissExposeFrac: 0.18, HitExposeFrac: 0.20, PhaseAmplitude: 0.08,
	},

	// ---- Class II: moderately memory intensive (~1e-3) ----
	{
		Name: "sp", Suite: NAS, Class: ClassII,
		Instructions: 5.5e11, BaseCPI: 0.80, LLCAccessRate: 0.0080,
		MRC:            PowerLawMRC{WorkingSetBytes: 16 * mib, Knee: 0.50, Floor: 0.020, Alpha: 1.00},
		MissExposeFrac: 0.45, HitExposeFrac: 0.25, PhaseAmplitude: 0.06,
	},
	{
		Name: "canneal", Suite: PARSEC, Class: ClassII,
		Instructions: 5.0e11, BaseCPI: 0.85, LLCAccessRate: 0.0110,
		MRC:            PowerLawMRC{WorkingSetBytes: 24 * mib, Knee: 0.45, Floor: 0.025, Alpha: 0.85},
		MissExposeFrac: 0.42, HitExposeFrac: 0.25, PhaseAmplitude: 0.03,
	},
	{
		Name: "ft", Suite: NAS, Class: ClassII,
		Instructions: 4.6e11, BaseCPI: 0.78, LLCAccessRate: 0.0065,
		MRC:            PowerLawMRC{WorkingSetBytes: 20 * mib, Knee: 0.45, Floor: 0.030, Alpha: 0.90},
		MissExposeFrac: 0.40, HitExposeFrac: 0.25, PhaseAmplitude: 0.10,
	},

	// ---- Class III: mildly memory intensive (~1e-4) ----
	{
		Name: "fluidanimate", Suite: PARSEC, Class: ClassIII,
		Instructions: 6.5e11, BaseCPI: 0.90, LLCAccessRate: 0.0080,
		MRC:            PowerLawMRC{WorkingSetBytes: 6 * mib, Knee: 0.45, Floor: 0.0035, Alpha: 1.10},
		MissExposeFrac: 0.50, HitExposeFrac: 0.30, PhaseAmplitude: 0.05,
	},
	{
		Name: "lu", Suite: NAS, Class: ClassIII,
		Instructions: 7.0e11, BaseCPI: 0.85, LLCAccessRate: 0.0060,
		MRC:            PowerLawMRC{WorkingSetBytes: 8 * mib, Knee: 0.40, Floor: 0.0045, Alpha: 1.00},
		MissExposeFrac: 0.45, HitExposeFrac: 0.30, PhaseAmplitude: 0.07,
	},
	{
		Name: "bodytrack", Suite: PARSEC, Class: ClassIII,
		Instructions: 5.8e11, BaseCPI: 0.95, LLCAccessRate: 0.0045,
		MRC:            PowerLawMRC{WorkingSetBytes: 5 * mib, Knee: 0.35, Floor: 0.0030, Alpha: 1.20},
		MissExposeFrac: 0.40, HitExposeFrac: 0.30, PhaseAmplitude: 0.04,
	},

	// ---- Class IV: CPU bound (~1e-5 and below) ----
	{
		Name: "ep", Suite: NAS, Class: ClassIV,
		Instructions: 9.0e11, BaseCPI: 1.05, LLCAccessRate: 0.0020,
		MRC:            PowerLawMRC{WorkingSetBytes: 1 * mib, Knee: 0.50, Floor: 0.0010, Alpha: 1.00},
		MissExposeFrac: 0.35, HitExposeFrac: 0.30, PhaseAmplitude: 0.02,
	},
	{
		Name: "blackscholes", Suite: PARSEC, Class: ClassIV,
		Instructions: 8.0e11, BaseCPI: 1.00, LLCAccessRate: 0.0012,
		MRC:            PowerLawMRC{WorkingSetBytes: 1.5 * mib, Knee: 0.40, Floor: 0.0008, Alpha: 1.10},
		MissExposeFrac: 0.35, HitExposeFrac: 0.30, PhaseAmplitude: 0.02,
	},
}

// All returns the eleven applications of Table III, ordered by class then
// name.
func All() []App {
	out := append([]App(nil), apps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ByName returns the named application.
func ByName(name string) (App, error) {
	for _, a := range apps {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("workload: unknown application %q", name)
}

// TrainingCoApps returns the four co-location applications used to collect
// training data (Section IV-B3): cg, sp, fluidanimate and ep, one
// representative per memory-intensity class.
func TrainingCoApps() []App {
	names := []string{"cg", "sp", "fluidanimate", "ep"}
	out := make([]App, len(names))
	for i, n := range names {
		a, err := ByName(n)
		if err != nil {
			panic(err) // registry and list are both package-internal
		}
		out[i] = a
	}
	return out
}

// Names returns the names of the given applications, in order.
func Names(as []App) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}
