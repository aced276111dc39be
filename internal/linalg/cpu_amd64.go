package linalg

// cpuid executes CPUID for leaf eaxArg, subleaf ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the register state the OS saves.
func xgetbv() (eax, edx uint32)

// cpuAVX2, cpuFMA and cpuAVX512 are the CPU features the kernels need,
// read once at init: cpuAVX2 is AVX2 with the OS saving the YMM
// registers, which the 4-lane matrix kernels need; cpuFMA adds FMA,
// which the tanh kernels need too; cpuAVX512 adds AVX512F with the OS
// saving the opmask and ZMM registers, which the 8-lane kernels need.
var cpuAVX2, cpuFMA, cpuAVX512 = cpuFeatures()

func cpuFeatures() (avx2, fma, avx512 bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false, false
	}
	const fmaBit, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avx) != osxsave|avx {
		return false, false, false
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 { // XMM and YMM state
		return false, false, false
	}
	_, ebx, _, _ := cpuid(7, 0)
	avx2 = ebx&(1<<5) != 0
	fma = avx2 && ecx&fmaBit != 0
	// AVX512F, with opmask, upper-ZMM0–15 and ZMM16–31 state saved.
	avx512 = avx2 && ebx&(1<<16) != 0 && xcr0&0xE6 == 0xE6
	return avx2, fma, avx512
}
