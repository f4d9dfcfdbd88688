package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// columnIntoReference is columnInto as it was before entries were paired,
// kept verbatim: one B⁻¹ column per pass, zero entries skipped.
func columnIntoReference(s *PackingSolver, basisID int, out []float64) {
	m := s.m
	if basisID < 0 {
		r := -basisID - 1
		copy(out, s.binv[r*m:r*m+m])
		return
	}
	clear(out)
	for _, e := range s.col[basisID].entries {
		v := e.Value
		if v == 0 {
			continue
		}
		col := s.binv[e.Index*m : e.Index*m+m]
		for i := range out {
			out[i] += col[i] * v
		}
	}
}

// pivotReference is pivot as it was before the dense-direction sweep, kept
// verbatim but for its row-list scratch, which was a solver field and is
// now local: every support column is updated over the gathered list of the
// rows other than the pivot row where dir is nonzero.
func pivotReference(s *PackingSolver, leave, entering int, dir []float64, theta, rc float64) {
	old := s.basis[leave]
	if old >= 0 {
		s.inBasis[old] = false
	} else {
		s.slackInBasis[-old-1] = false
	}
	if entering >= 0 {
		s.inBasis[entering] = true
	} else {
		s.slackInBasis[-entering-1] = true
	}
	s.basis[leave] = entering

	// Update basic solution.
	for i := range s.xb {
		if i == leave {
			continue
		}
		s.xb[i] -= theta * dir[i]
		if s.xb[i] < 0 && s.xb[i] > -1e-9 {
			s.xb[i] = 0
		}
	}
	s.xb[leave] = theta

	// Elementary row transformation of B⁻¹, restricted to the nonzero
	// support of the pivot row and the rows where dir is nonzero: a zero
	// on either side contributes f·0 = 0, and basis inverses stay sparse
	// (slack-heavy packing bases mostly are). The pivot row is read once,
	// m strided reads down the column-major B⁻¹; each support column is
	// then updated in place over the listed rows. Every visited entry
	// receives the one operation x -= f·v with the same f and v as under a
	// row-by-row sweep, so the bits do not depend on the traversal order.
	m := s.m
	binv := s.binv
	inv := 1 / dir[leave]
	sup := s.supBuf[:0]
	val := s.supVal[:0]
	for j, p := 0, leave; j < m; j, p = j+1, p+m {
		if v := binv[p]; v != 0 {
			v *= inv
			binv[p] = v
			sup = append(sup, int32(j))
			val = append(val, v)
		}
	}
	s.supBuf = sup
	s.supVal = val
	var rows []int32
	var fs []float64
	for i, f := range dir {
		if f != 0 && i != leave {
			rows = append(rows, int32(i))
			fs = append(fs, f)
		}
	}
	fs = fs[:len(rows)]
	// Two support columns per pass share each (row, f) load.
	k := 0
	for ; k+1 < len(sup); k += 2 {
		c0 := binv[int(sup[k])*m : int(sup[k])*m+m]
		c1 := binv[int(sup[k+1])*m : int(sup[k+1])*m+m]
		v0, v1 := val[k], val[k+1]
		for t, i := range rows {
			f := fs[t]
			c0[i] -= f * v0
			c1[i] -= f * v1
		}
	}
	if k < len(sup) {
		col := binv[int(sup[k])*m : int(sup[k])*m+m]
		v := val[k]
		for t, i := range rows {
			col[i] -= fs[t] * v
		}
	}
	// Dual update: with entering reduced cost rc and pivot element d_r,
	// y' = y + (rc/d_r)·(B⁻¹)_r = y + rc·(B'⁻¹)_r — val already holds the
	// transformed row's support, so the O(m²) from-scratch product is
	// unnecessary.
	if rc != 0 {
		for k, j := range sup {
			s.y[j] += rc * val[k]
		}
	}
	s.pivots++
	if s.pivots%2000 == 0 {
		s.refactorize()
	}
}

// pivotKernel is one implementation of the simplex kernel under test.
type pivotKernel struct {
	column func(s *PackingSolver, basisID int, out []float64)
	pivot  func(s *PackingSolver, leave, entering int, dir []float64, theta, rc float64)
}

var (
	liveKernel = pivotKernel{
		column: (*PackingSolver).columnInto,
		pivot:  (*PackingSolver).pivot,
	}
	refKernel = pivotKernel{column: columnIntoReference, pivot: pivotReference}
)

// stepSolve runs one iteration of SolveCtx's loop on s through kernel k:
// the same pricing, ratio test and pivot choice. It returns false once s is
// optimal or unbounded, and reports whether the entering direction had a
// zero entry, a row the reference skips and pivot's sweep visits.
func stepSolve(s *PackingSolver, k pivotKernel, stall *int) (more, zeros bool) {
	if len(s.dirBuf) != s.m {
		s.dirBuf = make([]float64, s.m)
	}
	dir := s.dirBuf
	y := s.y
	useBland := *stall > 2*s.m+100
	entering := -1
	enterRC := 0.0
	best := tol
	for j, c := range s.col {
		if s.inBasis[j] {
			continue
		}
		rc := c.obj
		for _, e := range c.entries {
			rc -= y[e.Index] * e.Value
		}
		if rc > best {
			entering, enterRC = j, rc
			if useBland {
				break
			}
			best = rc
		}
	}
	if entering == -1 {
		for r := 0; r < s.m; r++ {
			if s.slackInBasis[r] {
				continue
			}
			if -y[r] > best {
				entering, enterRC = -(r + 1), -y[r]
				if useBland {
					break
				}
				best = -y[r]
			}
		}
	}
	if entering == -1 && best <= tol {
		return false, false // entering == -1 with best > tol is row 0's slack
	}
	k.column(s, entering, dir)
	leave := -1
	bestRatio := math.Inf(1)
	for i := 0; i < s.m; i++ {
		if dir[i] > pivotTol {
			ratio := s.xb[i] / dir[i]
			if ratio < bestRatio-tol ||
				(ratio < bestRatio+tol && (leave == -1 || s.basis[i] < s.basis[leave])) {
				bestRatio = ratio
				leave = i
			}
		}
	}
	if leave == -1 {
		return false, false
	}
	if bestRatio < tol {
		*stall++
	} else {
		*stall = 0
	}
	zeros = slices.Contains(dir, 0)
	k.pivot(s, leave, entering, dir, bestRatio, enterRC)
	return true, zeros
}

// sameBits reports whether a and b have the same bits, an exact zero of
// either sign matching the other: no value computed from the solver state
// can tell −0 from +0 (DESIGN.md §5b).
func sameBits(a, b float64) bool {
	if a == 0 && b == 0 {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// diffState returns a description of the first difference between the
// basis, x_B, y and B⁻¹ of got and want, or "".
func diffState(got, want *PackingSolver) string {
	for i := range want.basis {
		if got.basis[i] != want.basis[i] {
			return "basis"
		}
	}
	for i := range want.xb {
		if !sameBits(got.xb[i], want.xb[i]) {
			return "x_B"
		}
		if !sameBits(got.y[i], want.y[i]) {
			return "y"
		}
	}
	for p := range want.binv[:want.m*want.m] {
		if !sameBits(got.binv[p], want.binv[p]) {
			return "B⁻¹"
		}
	}
	return ""
}

// randomPivotLP builds a random packing LP with m rows whose columns carry
// up to maxNNZ entries, with an occasional dense column and some zero
// right-hand sides (degenerate rows, as dead links give the flow master).
func randomPivotLP(t *testing.T, rng *rand.Rand, m, maxNNZ int) *PackingSolver {
	t.Helper()
	b := make([]float64, m)
	for i := range b {
		if rng.Intn(6) != 0 {
			b[i] = float64(1 + rng.Intn(10))
		}
	}
	s, err := NewPacking(b)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3*m; k++ {
		nnz := 1 + rng.Intn(maxNNZ)
		if rng.Intn(12) == 0 {
			nnz = m
		}
		es := make([]Entry, nnz)
		for e := range es {
			es[e] = Entry{Index: rng.Intn(m), Value: 0.05 + rng.Float64()*3}
		}
		if _, err := s.AddColumn(0.5+rng.Float64()*2, es); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestPivotMatchesReference pins pivot and columnInto to their verbatim
// earlier forms. Twin solvers walk the same random packing LPs (m from 5 to
// 400, entering directions with and without zero entries) in lockstep, one through the
// live kernel and one through the reference; after every pivot the basis,
// x_B, y and B⁻¹ must agree bit for bit (±0 alike). Each LP is re-solved
// after a refactorization forced a few pivots in, which leaves −0 entries
// in B⁻¹ for the kernels to read. A third solver runs the real SolveCtx,
// whose objective, primals and duals must equal the reference's exactly.
// It runs once on the portable loops and once on the AVX2 kernels.
func TestPivotMatchesReference(t *testing.T) {
	eachKernelPath(t, testPivotMatchesReference)
}

func testPivotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sizes := []int{5, 8, 13, 21, 40, 75, 130, 220, 400}
	var full, withZeros, negZeros int
	for _, m := range sizes {
		for _, maxNNZ := range []int{2, 6} {
			if m == 400 && maxNNZ == 6 {
				continue // thousands of pivots; the smaller LPs cover it
			}
			seed := rng.Int63()
			live := randomPivotLP(t, rand.New(rand.NewSource(seed)), m, maxNNZ)
			ref := randomPivotLP(t, rand.New(rand.NewSource(seed)), m, maxNNZ)
			real := randomPivotLP(t, rand.New(rand.NewSource(seed)), m, maxNNZ)
			for round := 0; round < 2; round++ {
				if round == 1 {
					// Refactorize on the third pivot of the re-solve, after
					// a fresh batch of columns.
					for _, s := range []*PackingSolver{live, ref, real} {
						extra := rand.New(rand.NewSource(seed + 1))
						for k := 0; k < m; k++ {
							es := []Entry{{Index: extra.Intn(m), Value: 0.05 + extra.Float64()*3}}
							if _, err := s.AddColumn(0.5+extra.Float64()*2, es); err != nil {
								t.Fatal(err)
							}
						}
						s.pivots = 2000*(s.pivots/2000+1) - 3
					}
				}
				var stallL, stallR int
				for step := 0; ; step++ {
					more, z := stepSolve(ref, refKernel, &stallR)
					moreL, _ := stepSolve(live, liveKernel, &stallL)
					if more != moreL {
						t.Fatalf("m=%d round=%d step %d: live more=%v, reference %v", m, round, step, moreL, more)
					}
					if !more {
						break
					}
					if z {
						withZeros++
					} else {
						full++
					}
					if what := diffState(live, ref); what != "" {
						t.Fatalf("m=%d nnz≤%d round=%d step %d: %s differs from the reference", m, maxNNZ, round, step, what)
					}
					if ref.pivots%2000 == 0 {
						for _, v := range ref.binv[:m*m] {
							if v == 0 && math.Signbit(v) {
								negZeros++
							}
						}
					}
				}
				if st, err := real.SolveCtx(nil); err != nil || st != StatusOptimal {
					t.Fatalf("m=%d round=%d: Solve = %v, %v", m, round, st, err)
				}
				if real.Pivots() != ref.Pivots() {
					t.Fatalf("m=%d round=%d: %d pivots, reference %d", m, round, real.Pivots(), ref.Pivots())
				}
				if math.Float64bits(real.Objective()) != math.Float64bits(ref.Objective()) {
					t.Fatalf("m=%d round=%d: objective %v, reference %v", m, round, real.Objective(), ref.Objective())
				}
				realX := real.Primals()
				for j, x := range ref.Primals() {
					if got := realX[j]; math.Float64bits(got) != math.Float64bits(x) {
						t.Fatalf("m=%d round=%d: primal %d = %v, reference %v", m, round, j, got, x)
					}
				}
				rd, gd := ref.Duals(), real.Duals()
				for i := range rd {
					if math.Float64bits(gd[i]) != math.Float64bits(rd[i]) {
						t.Fatalf("m=%d round=%d: dual %d = %v, reference %v", m, round, i, gd[i], rd[i])
					}
				}
			}
		}
	}
	if full == 0 || withZeros == 0 || negZeros == 0 {
		t.Fatalf("%d pivots on all-nonzero and %d on part-zero directions, %d −0 entries of B⁻¹ after refactorizing; want each > 0",
			full, withZeros, negZeros)
	}
}
