package workload

// Microbenchmarks returns four constructed kernels in the style of the
// [ChD14] "energy roofline" study the related-work section contrasts
// against: synthetic probes that each stress one corner of the
// memory/compute space, rather than the mixed behaviour of real
// scientific applications.
//
// They are *not* part of the Table III registry (All does not return
// them); the microbenchmark-transfer experiment uses them to test whether
// models trained on scientific workloads extend to application behaviour
// outside both benchmark suites.
//
//	pchase  — dependent pointer chasing: every LLC miss is serialised
//	          (no memory-level parallelism), latency-bound.
//	stream  — pure streaming over a huge footprint: maximal bandwidth
//	          demand, high MLP.
//	dgemm   — blocked dense compute: tiny working set, CPU-bound.
//	ministencil — a small-footprint stencil: moderate reuse, sensitive
//	          to losing its modest cache share.
func Microbenchmarks() []App {
	return []App{
		{
			Name: "pchase", Suite: NAS /* hosted kernel */, Class: ClassII,
			Instructions: 1.8e11, BaseCPI: 0.90, LLCAccessRate: 0.0150,
			MRC:            PowerLawMRC{WorkingSetBytes: 64 * mib, Knee: 0.95, Floor: 0.05, Alpha: 0.60},
			MissExposeFrac: 1.00, HitExposeFrac: 0.60, PhaseAmplitude: 0,
		},
		{
			Name: "stream", Suite: PARSEC /* hosted kernel */, Class: ClassI,
			Instructions: 3.0e11, BaseCPI: 0.60, LLCAccessRate: 0.0700,
			MRC:            PowerLawMRC{WorkingSetBytes: 512 * mib, Knee: 0.98, Floor: 0.90, Alpha: 0.50},
			MissExposeFrac: 0.10, HitExposeFrac: 0.15, PhaseAmplitude: 0,
		},
		{
			Name: "dgemm", Suite: NAS /* hosted kernel */, Class: ClassIV,
			Instructions: 1.1e12, BaseCPI: 0.95, LLCAccessRate: 0.0008,
			MRC:            PowerLawMRC{WorkingSetBytes: 2 * mib, Knee: 0.30, Floor: 0.0005, Alpha: 1.00},
			MissExposeFrac: 0.30, HitExposeFrac: 0.25, PhaseAmplitude: 0,
		},
		{
			Name: "ministencil", Suite: PARSEC /* hosted kernel */, Class: ClassIII,
			Instructions: 6.0e11, BaseCPI: 0.85, LLCAccessRate: 0.0100,
			MRC:            PowerLawMRC{WorkingSetBytes: 10 * mib, Knee: 0.60, Floor: 0.004, Alpha: 1.10},
			MissExposeFrac: 0.45, HitExposeFrac: 0.30, PhaseAmplitude: 0,
		},
	}
}

// MicrobenchmarkByName returns the named microbenchmark.
func MicrobenchmarkByName(name string) (App, bool) {
	for _, a := range Microbenchmarks() {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}
