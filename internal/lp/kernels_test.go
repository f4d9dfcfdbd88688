package lp

import (
	"math"
	"math/rand"
	"testing"
)

// setAVX2 points the kernel wrappers at the AVX2 assembly (on) or the
// portable loops (off) for the rest of t.
func setAVX2(t testing.TB, on bool) {
	saved := useAVX2
	useAVX2 = on
	t.Cleanup(func() { useAVX2 = saved })
}

// requireAVX2 skips t on a CPU without AVX2 kernels.
func requireAVX2(t testing.TB) {
	if !haveAVX2() {
		t.Skip("no AVX2 kernels here (not amd64, no AVX2, or the OS does not save YMM state); the portable loops run instead")
	}
}

// eachKernelPath runs f twice: as subtest "portable" with the portable
// loops forced, then as "avx2" on the AVX2 kernels, skipped where there
// are none. Both must reproduce the same goldens.
func eachKernelPath(t *testing.T, f func(t *testing.T)) {
	t.Run("portable", func(t *testing.T) {
		setAVX2(t, false)
		f(t)
	})
	t.Run("avx2", func(t *testing.T) {
		requireAVX2(t)
		setAVX2(t, true)
		f(t)
	})
}

// kernelSpecials are the operands the kernels must treat exactly as the
// scalar loops do: signed zeros, subnormals, values whose products
// overflow or underflow, and infinities.
var kernelSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5e-310, -3e-320,
	1e300, -1e300, 1e-300, -1e-300,
	math.Inf(1), math.Inf(-1), math.MaxFloat64,
}

// kernelValue draws a kernel operand: a special value a third of the
// time, otherwise a normal value of random sign and magnitude.
func kernelValue(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return kernelSpecials[rng.Intn(len(kernelSpecials))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
}

// kernelDir draws an entering direction of length n with exact zeros of
// both signs.
func kernelDir(rng *rand.Rand, n int) []float64 {
	dir := make([]float64, n)
	for i := range dir {
		switch rng.Intn(5) {
		case 0:
			dir[i] = 0
		case 1:
			dir[i] = math.Copysign(0, -1)
		default:
			dir[i] = kernelValue(rng)
		}
	}
	return dir
}

// kernelColumn draws an operand column of length n, starting at a random
// offset into a longer slice so loads are unaligned and the entries past n
// are there to be (wrongly) written.
func kernelColumn(rng *rand.Rand, n int) []float64 {
	off := rng.Intn(4)
	c := make([]float64, off+n+3)
	for i := range c {
		c[i] = kernelValue(rng)
	}
	return c[off:]
}

// sameKernelBits reports whether got equals want element for element in
// Float64bits; a NaN only has to map to a NaN, since NaN payloads are not
// pinned.
func sameKernelBits(got, want []float64) int {
	for i := range want {
		if math.IsNaN(want[i]) {
			if !math.IsNaN(got[i]) {
				return i
			}
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// kernelLengths covers every tail residue of the eight- and four-wide
// blocks, the empty operand, and the measured SEE and serve sizes.
func kernelLengths() []int {
	var ns []int
	for n := 0; n <= 67; n++ {
		ns = append(ns, n)
	}
	return append(ns, 336, 401)
}

// TestKernelsMatchPortable runs each AVX2 kernel and its portable loop on
// the same operands and requires the same bits in every output element,
// and none written past the operand length.
func TestKernelsMatchPortable(t *testing.T) {
	t.Run("short operands panic", func(t *testing.T) {
		// The wrappers reslice in Go, so a short operand never reaches the
		// assembly, whichever path is selected.
		for _, on := range []bool{false, haveAVX2()} {
			setAVX2(t, on)
			dir, short := make([]float64, 9), make([]float64, 8)
			for name, call := range map[string]func(){
				"sweep4":  func() { sweep4(dir, dir, dir, dir, short, 1, 1, 1, 1) },
				"sweep1":  func() { sweep1(dir, short, 1) },
				"addMul2": func() { addMul2(dir, short, dir, 1, 1) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s (avx2=%v) accepted an operand shorter than dir", name, on)
						}
					}()
					call()
				}()
			}
		}
	})
	t.Run("avx2", func(t *testing.T) {
		requireAVX2(t)
		setAVX2(t, true)
		rng := rand.New(rand.NewSource(31))
		clone := func(c []float64) []float64 { return append([]float64(nil), c...) }
		for _, n := range kernelLengths() {
			for trial := 0; trial < 40; trial++ {
				dir := kernelDir(rng, n)
				var cs [4][]float64
				var vs [4]float64
				for k := range cs {
					cs[k] = kernelColumn(rng, n)
					vs[k] = kernelValue(rng)
				}
				if trial%8 == 0 {
					vs[trial/8%4] = 0 // a zero factor, as f·0 in the sweep
				}

				var got, want [4][]float64
				for k := range cs {
					got[k], want[k] = clone(cs[k]), clone(cs[k])
				}
				sweep4(dir, got[0], got[1], got[2], got[3], vs[0], vs[1], vs[2], vs[3])
				sweep4Go(dir, want[0][:n], want[1][:n], want[2][:n], want[3][:n], vs[0], vs[1], vs[2], vs[3])
				for k := range cs {
					if i := sameKernelBits(got[k], want[k]); i >= 0 {
						t.Fatalf("sweep4 n=%d trial %d: column %d entry %d = %x, portable %x",
							n, trial, k, i, math.Float64bits(got[k][i]), math.Float64bits(want[k][i]))
					}
				}

				g1, w1 := clone(cs[0]), clone(cs[0])
				sweep1(dir, g1, vs[1])
				sweep1Go(dir, w1[:n], vs[1])
				if i := sameKernelBits(g1, w1); i >= 0 {
					t.Fatalf("sweep1 n=%d trial %d: entry %d = %x, portable %x",
						n, trial, i, math.Float64bits(g1[i]), math.Float64bits(w1[i]))
				}

				out := kernelColumn(rng, n)
				g2, w2 := clone(out), clone(out)
				addMul2(g2[:n], cs[1], cs[2], vs[2], vs[3])
				addMul2Go(w2[:n], cs[1][:n], cs[2][:n], vs[2], vs[3])
				if i := sameKernelBits(g2, w2); i >= 0 {
					t.Fatalf("addMul2 n=%d trial %d: entry %d = %x, portable %x",
						n, trial, i, math.Float64bits(g2[i]), math.Float64bits(w2[i]))
				}
			}
		}
	})
}

// BenchmarkPivotSweep times one pivot's B⁻¹ sweep at the shape measured
// on SEE's cold solves: m = 336 rows, 81 support columns, dir nonzero on
// 83% of its rows. It is a measuring aid for the kernels, not part of any
// gate.
func BenchmarkPivotSweep(b *testing.B) {
	const m, support = 336, 81
	rng := rand.New(rand.NewSource(1))
	binv := make([]float64, m*m)
	for i := range binv {
		binv[i] = rng.Float64()
	}
	dir := make([]float64, m)
	for i := range dir {
		if rng.Float64() < 0.83 {
			dir[i] = 1e-3 * rng.Float64()
		}
	}
	sup := rng.Perm(m)[:support]
	val := make([]float64, support)
	for k := range val {
		val[k] = 1e-3 * rng.Float64()
	}
	sweep := func() {
		k := 0
		for ; k+3 < support; k += 4 {
			sweep4(dir, binv[sup[k]*m:], binv[sup[k+1]*m:], binv[sup[k+2]*m:], binv[sup[k+3]*m:],
				val[k], val[k+1], val[k+2], val[k+3])
		}
		for ; k < support; k++ {
			sweep1(dir, binv[sup[k]*m:], val[k])
		}
	}
	b.Run("avx2", func(b *testing.B) {
		requireAVX2(b)
		setAVX2(b, true)
		for range b.N {
			sweep()
		}
	})
	b.Run("portable", func(b *testing.B) {
		setAVX2(b, false)
		for range b.N {
			sweep()
		}
	})
}
