package linalg

// cpuid executes CPUID for leaf eaxArg, subleaf ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the register state the OS saves.
func xgetbv() (eax, edx uint32)

// cpuAVX2 and cpuFMA are the CPU features the kernels need, read once at
// init: cpuAVX2 is AVX2 with the OS saving the YMM registers, which the
// matrix kernels need; cpuFMA adds FMA, which the tanh kernel needs too.
var cpuAVX2, cpuFMA = cpuFeatures()

func cpuFeatures() (avx2, fma bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	const fmaBit, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state
		return false, false
	}
	_, ebx, _, _ := cpuid(7, 0)
	avx2 = ebx&(1<<5) != 0
	return avx2, avx2 && ecx&fmaBit != 0
}
