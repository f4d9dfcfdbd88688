package lp

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (CPUID.1:ECX.OSXSAVE and .AVX,
// XCR0 bits 1 and 2, CPUID.7.0:EBX.AVX2).
func haveAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The AVX2 kernels take n ≥ 1 and pointers to the first element of
// operands at least n long; the wrappers in kernels.go guarantee both.

//go:noescape
func sweep4AVX2(n int, dir, c0, c1, c2, c3 *float64, v0, v1, v2, v3 float64)

//go:noescape
func sweep1AVX2(n int, dir, c *float64, v float64)

//go:noescape
func addMul2AVX2(n int, out, c0, c1 *float64, v0, v1 float64)
