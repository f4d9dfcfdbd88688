//go:build !amd64

package lp

// haveAVX2 is false off amd64: the portable loops always run.
func haveAVX2() bool { return false }

// The AVX2 kernels exist only on amd64. These stand-ins keep the
// wrappers' one code path compiling; useAVX2 is never true here.

func sweep4AVX2(n int, dir, c0, c1, c2, c3 *float64, v0, v1, v2, v3 float64) {
	panic("lp: no AVX2 kernels on this architecture")
}

func sweep1AVX2(n int, dir, c *float64, v float64) {
	panic("lp: no AVX2 kernels on this architecture")
}

func addMul2AVX2(n int, out, c0, c1 *float64, v0, v1 float64) {
	panic("lp: no AVX2 kernels on this architecture")
}
