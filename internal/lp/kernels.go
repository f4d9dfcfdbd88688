package lp

// The packing simplex's three dense loops: pivot's B⁻¹ sweep, four support
// columns per pass and a one-column tail, and columnInto's paired pass.
// Each wrapper reslices every operand to len of its first slice, so a short
// slice panics here, in Go, and then runs the AVX2 assembly when the CPU
// has it or the portable loop below otherwise. Both give the same bits:
// the assembly does per lane exactly the IEEE multiply and subtract (or
// add) that the Go loop does per element, and never fuses them
// (DESIGN.md §5b).

// useAVX2 selects the AVX2 kernels. It is set once from CPUID and XGETBV;
// only tests change it, to force the portable loops.
var useAVX2 = haveAVX2()

// sweep4 does c_k[i] -= dir[i]·v_k for k = 0…3 and every i < len(dir).
func sweep4(dir, c0, c1, c2, c3 []float64, v0, v1, v2, v3 float64) {
	n := len(dir)
	c0, c1, c2, c3 = c0[:n], c1[:n], c2[:n], c3[:n]
	if useAVX2 && n > 0 {
		sweep4AVX2(n, &dir[0], &c0[0], &c1[0], &c2[0], &c3[0], v0, v1, v2, v3)
		return
	}
	sweep4Go(dir, c0, c1, c2, c3, v0, v1, v2, v3)
}

// sweep1 does c[i] -= dir[i]·v for every i < len(dir).
func sweep1(dir, c []float64, v float64) {
	n := len(dir)
	c = c[:n]
	if useAVX2 && n > 0 {
		sweep1AVX2(n, &dir[0], &c[0], v)
		return
	}
	sweep1Go(dir, c, v)
}

// addMul2 does out[i] = (out[i] + c0[i]·v0) + c1[i]·v1 for every
// i < len(out).
func addMul2(out, c0, c1 []float64, v0, v1 float64) {
	n := len(out)
	c0, c1 = c0[:n], c1[:n]
	if useAVX2 && n > 0 {
		addMul2AVX2(n, &out[0], &c0[0], &c1[0], v0, v1)
		return
	}
	addMul2Go(out, c0, c1, v0, v1)
}

// sweep4Go is sweep4's portable loop; the operands are len(dir) long.
func sweep4Go(dir, c0, c1, c2, c3 []float64, v0, v1, v2, v3 float64) {
	for i, f := range dir {
		c0[i] -= f * v0
		c1[i] -= f * v1
		c2[i] -= f * v2
		c3[i] -= f * v3
	}
}

// sweep1Go is sweep1's portable loop; c is len(dir) long.
func sweep1Go(dir, c []float64, v float64) {
	for i, f := range dir {
		c[i] -= f * v
	}
}

// addMul2Go is addMul2's portable loop; c0 and c1 are len(out) long.
func addMul2Go(out, c0, c1 []float64, v0, v1 float64) {
	for i := range out {
		out[i] = (out[i] + c0[i]*v0) + c1[i]*v1
	}
}
