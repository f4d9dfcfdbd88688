package lp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ctxCheckStride is how many simplex pivots run between context polls in
// SolveCtx. Small enough that a slot budget cuts a runaway solve promptly,
// large enough that the poll never shows up in profiles.
const ctxCheckStride = 64

// PackingSolver is a revised primal simplex specialized to packing LPs:
//
//	maximize cᵀx  subject to  Ax ≤ b,  x ≥ 0,  b ≥ 0.
//
// All rows are ≤ with non-negative right-hand sides, so the all-slack basis
// is feasible and no phase 1 is needed. Columns are sparse and can be added
// between solves, which makes the type the master problem of the
// column-generation loop in internal/flow: Solve, read Duals, price new
// columns, AddColumn, Solve again (warm-started from the current basis).
// Reset re-initializes a solver for a new problem while keeping its
// buffers, so a sequence of solves allocates B⁻¹ and the pivot scratch
// once.
type PackingSolver struct {
	m   int
	b   []float64
	col []packedColumn

	// Basis state. basis[i] identifies the basic variable of row i:
	// values ≥ 0 are structural column indices, values < 0 encode slack
	// −(row+1).
	basis   []int
	inBasis []bool // per structural column
	// binv is B⁻¹, column-major in one flat slice: entry (i, c) lives at
	// c*m+i. columnInto streams whole columns of it, and pivot sweeps
	// each column of the pivot row's support over the whole entering
	// direction.
	binv   []float64
	xb     []float64
	solved bool

	// Incrementally maintained views of the basis, kept in sync by
	// pivot/resetBasis/refactorize so the solve loop and accessors stop
	// recomputing them:
	//
	//	y            — the (unclamped) duals c_B·B⁻¹; pivoting updates them
	//	               in O(m) via y += rc/d_r · (B⁻¹)_r instead of the
	//	               O(m²) from-scratch product per iteration.
	//	slackInBasis — per row, whether its slack is basic (replaces a
	//	               linear basis scan per pricing candidate).
	//	basisRowOf   — structural column → basis row, or −1 (makes Primal
	//	               O(1)).
	y            []float64
	slackInBasis []bool
	basisRowOf   []int

	// MaxIter caps pivots per Solve call; 0 means automatic.
	MaxIter int
	// pivots counts total pivots across Solve calls (refactorization
	// schedule and tests).
	pivots int
	// supBuf/supVal are pivot's reusable scratch for the nonzero support
	// of the transformed pivot row (column indices of B⁻¹ and the row's
	// values there); refactorize reuses supBuf for the support of each
	// scaled elimination row.
	supBuf []int32
	supVal []float64
	// dirBuf is SolveCtx's reusable entering-direction column B⁻¹·A_j.
	dirBuf []float64
	// cbBuf is computeDuals' per-row basic objective c_B.
	cbBuf []float64
	// colBuf is AddColumn's reusable entry-merge scratch; entryBuf is the
	// slab the merged column entries are carved from, recycled by Reset.
	colBuf   []Entry
	entryBuf []Entry
	// refacBuf is refactorize's reusable m×2m row-major Gauss-Jordan
	// workspace.
	refacBuf [][]float64
}

type packedColumn struct {
	obj     float64
	entries []Entry
}

// NewPacking creates a solver with the given row capacities. All entries of
// b must be finite and ≥ 0.
func NewPacking(b []float64) (*PackingSolver, error) {
	s := &PackingSolver{}
	if err := s.Reset(b); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset re-initializes the solver as NewPacking(b) would: no columns, the
// all-slack basis and a zero pivot count, so the refactorization schedule
// and every later result match a fresh solver bit for bit. MaxIter is
// kept. The basis inverse, refactorization workspace and pivot scratch
// are reused, which makes a sequence of solves allocation-free once the
// buffers have grown to the largest row count seen. On error the solver
// is left unchanged.
func (s *PackingSolver) Reset(b []float64) error {
	for i, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("lp: packing rhs[%d] = %v must be finite and >= 0", i, v)
		}
	}
	s.m = len(b)
	s.b = append(s.b[:0], b...)
	clear(s.col)
	s.col = s.col[:0]
	s.entryBuf = s.entryBuf[:0]
	s.pivots = 0
	s.resetBasis()
	return nil
}

// resetBasis installs the all-slack basis (B⁻¹ = I, x_B = b, y = 0).
func (s *PackingSolver) resetBasis() {
	m := s.m
	s.basis = resize(s.basis, m)
	s.binv = resize(s.binv, m*m)
	clear(s.binv)
	s.xb = append(s.xb[:0], s.b...)
	s.y = resize(s.y, m) // all-slack basis has c_B = 0
	clear(s.y)
	s.slackInBasis = resize(s.slackInBasis, m)
	for i := 0; i < m; i++ {
		s.basis[i] = -(i + 1)
		s.binv[i*m+i] = 1
		s.slackInBasis[i] = true
	}
	s.inBasis = resize(s.inBasis, len(s.col))
	clear(s.inBasis)
	s.basisRowOf = resize(s.basisRowOf, len(s.col))
	for j := range s.basisRowOf {
		s.basisRowOf[j] = -1
	}
	s.solved = false
}

// resize returns buf with length n, reusing its storage when it fits.
// The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Pivots returns the total simplex pivots performed across all Solve calls
// — the direct measure of how much work a warm-started re-solve skipped.
func (s *PackingSolver) Pivots() int { return s.pivots }

// NumCols returns the number of structural columns.
func (s *PackingSolver) NumCols() int { return len(s.col) }

// AddColumn appends a sparse column with the given objective coefficient
// and returns its index. Entries must reference valid rows; duplicate rows
// are summed. Adding a column never invalidates the current basis.
func (s *PackingSolver) AddColumn(obj float64, entries []Entry) (int, error) {
	if math.IsNaN(obj) || math.IsInf(obj, 0) {
		return 0, errors.New("lp: non-finite objective coefficient")
	}
	for _, e := range entries {
		if e.Index < 0 || e.Index >= s.m {
			return 0, fmt.Errorf("lp: column entry row %d out of range [0,%d)", e.Index, s.m)
		}
		if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
			return 0, fmt.Errorf("lp: non-finite coefficient in row %d", e.Index)
		}
	}
	// Merge duplicate rows without a per-call map: stable-sort a scratch
	// copy by row, then sum runs left-to-right — the same per-row addition
	// order as input order, so merged values are bit-identical to the old
	// map-based merge.
	buf := append(s.colBuf[:0], entries...)
	slices.SortStableFunc(buf, func(a, b Entry) int { return cmp.Compare(a.Index, b.Index) })
	// The merged entries are appended to the slab; a slab that has to
	// grow moves on to fresh storage, leaving earlier columns' entries
	// where they are.
	if cap(s.entryBuf)-len(s.entryBuf) < len(buf) {
		s.entryBuf = make([]Entry, 0, max(2*cap(s.entryBuf), len(buf), 64))
	}
	start := len(s.entryBuf)
	es := s.entryBuf
	for i := 0; i < len(buf); {
		r := buf[i].Index
		v := buf[i].Value
		for i++; i < len(buf) && buf[i].Index == r; i++ {
			v += buf[i].Value
		}
		if v != 0 {
			es = append(es, Entry{Index: r, Value: v})
		}
	}
	s.entryBuf = es
	s.colBuf = buf
	s.col = append(s.col, packedColumn{obj: obj, entries: es[start:len(es):len(es)]})
	s.inBasis = append(s.inBasis, false)
	s.basisRowOf = append(s.basisRowOf, -1)
	return len(s.col) - 1, nil
}

// Duals returns the dual variable of each row from the last optimal solve.
// For packing LPs the duals are ≥ 0 (up to tolerance).
func (s *PackingSolver) Duals() []float64 {
	y := append([]float64(nil), s.y...)
	for j := range y {
		if y[j] < 0 && y[j] > -1e-7 {
			y[j] = 0
		}
	}
	return y
}

// computeDuals recomputes c_B·B⁻¹ from the basis definition into s.y,
// discarding the incrementally maintained values (refactorization and
// drift tests).
func (s *PackingSolver) computeDuals() {
	m := s.m
	cb := resize(s.cbBuf, m)
	s.cbBuf = cb
	for i, id := range s.basis {
		cb[i] = s.objOf(id)
	}
	// y_j = Σ_i c_B[i]·B⁻¹[i][j], summed over ascending i as a row-major
	// sweep would, one contiguous column of B⁻¹ per j.
	for j := 0; j < m; j++ {
		col := s.binv[j*m : j*m+m]
		var y float64
		for i, c := range cb {
			if c == 0 {
				continue
			}
			y += c * col[i]
		}
		s.y[j] = y
	}
}

// Objective returns the current objective value.
func (s *PackingSolver) Objective() float64 {
	var v float64
	for i, bi := range s.basis {
		v += s.objOf(bi) * s.xb[i]
	}
	return v
}

// Primal returns the value of structural column j in the current basic
// solution.
func (s *PackingSolver) Primal(j int) float64 {
	if j < 0 || j >= len(s.col) {
		return 0
	}
	if r := s.basisRowOf[j]; r >= 0 {
		return s.xb[r]
	}
	return 0
}

// Primals returns all structural values as a slice.
func (s *PackingSolver) Primals() []float64 {
	x := make([]float64, len(s.col))
	for i, bi := range s.basis {
		if bi >= 0 {
			x[bi] = s.xb[i]
		}
	}
	return x
}

// ReducedCost computes c_j − yᵀA_j for a hypothetical column without adding
// it; y must come from Duals().
func ReducedCost(obj float64, entries []Entry, y []float64) float64 {
	rc := obj
	for _, e := range entries {
		rc -= y[e.Index] * e.Value
	}
	return rc
}

func (s *PackingSolver) objOf(basisID int) float64 {
	if basisID >= 0 {
		return s.col[basisID].obj
	}
	return 0 // slack
}

// columnInto writes B⁻¹·A_j for basis entry id into out: the sum of the
// B⁻¹ columns of A_j's entries, each streamed whole, in entry order. Two
// entries share each pass over out (addMul2); out[i] still adds the first
// entry's term before the second's, so every sum keeps its order.
func (s *PackingSolver) columnInto(basisID int, out []float64) {
	m := s.m
	if basisID < 0 {
		r := -basisID - 1
		copy(out, s.binv[r*m:r*m+m])
		return
	}
	clear(out)
	// AddColumn keeps only nonzero entries, so no term is skipped.
	es := s.col[basisID].entries
	k := 0
	for ; k+1 < len(es); k += 2 {
		addMul2(out, s.binv[es[k].Index*m:], s.binv[es[k+1].Index*m:], es[k].Value, es[k+1].Value)
	}
	if k < len(es) {
		col := s.binv[es[k].Index*m:][:len(out)]
		v := es[k].Value
		for i := range out {
			out[i] += col[i] * v
		}
	}
}

// Solve optimizes from the current basis and returns the status. After
// StatusOptimal, Duals/Primal/Objective describe the optimum. The packing
// form cannot be infeasible, and with finite b it cannot be unbounded unless
// a column has no positive entries and positive objective.
func (s *PackingSolver) Solve() (Status, error) {
	return s.SolveCtx(nil)
}

// SolveCtx is Solve bounded by a context (nil = never cancelled). The
// deadline is polled every ctxCheckStride pivots — cheap relative to the
// O(m) pricing pass — and a cancelled solve returns ctx.Err() with the
// basis left in the valid (suboptimal) state of the last completed pivot,
// so a later Solve can resume from it.
func (s *PackingSolver) SolveCtx(ctx context.Context) (Status, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	maxIter := s.MaxIter
	if maxIter <= 0 {
		maxIter = 500*(s.m+1) + 50*len(s.col)
		if maxIter < 20000 {
			maxIter = 20000
		}
	}
	if len(s.dirBuf) != s.m {
		s.dirBuf = make([]float64, s.m)
	}
	dir := s.dirBuf
	stall := 0
	for iter := 0; iter < maxIter; iter++ {
		if done != nil && iter%ctxCheckStride == 0 {
			select {
			case <-done:
				return 0, ctx.Err()
			default:
			}
		}
		// s.y holds the duals of the current basis, maintained across
		// pivots in O(m); pricing reads it directly.
		y := s.y
		useBland := stall > 2*s.m+100
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
				entering = j
				enterRC = rc
				if useBland {
					break
				}
				best = rc
			}
		}
		if entering == -1 {
			// Also consider slack re-entry (possible when duals go
			// negative due to degeneracy); slack j has rc = −y_j.
			for r := 0; r < s.m; r++ {
				if s.slackInBasis[r] {
					continue
				}
				if -y[r] > best {
					entering = -(r + 1)
					enterRC = -y[r]
					if useBland {
						break
					}
					best = -y[r]
				}
			}
		}
		if entering == -1 && best <= tol {
			s.solved = true
			return StatusOptimal, nil
		}

		s.columnInto(entering, dir)
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
			return StatusUnbounded, nil
		}
		if bestRatio < tol {
			stall++
		} else {
			stall = 0
		}
		s.pivot(leave, entering, dir, bestRatio, enterRC)
	}
	return StatusIterLimit, nil
}

// pivot replaces the basic variable of row leave by entering, whose
// direction B⁻¹·A_entering is dir, with step theta and reduced cost rc. It
// may overwrite dir[leave] with 0.
func (s *PackingSolver) pivot(leave, entering int, dir []float64, theta, rc float64) {
	old := s.basis[leave]
	if old >= 0 {
		s.inBasis[old] = false
		s.basisRowOf[old] = -1
	} else {
		s.slackInBasis[-old-1] = false
	}
	if entering >= 0 {
		s.inBasis[entering] = true
		s.basisRowOf[entering] = leave
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
	// support of the pivot row: a zero there contributes f·0 = 0, and
	// basis inverses stay sparse (slack-heavy packing bases mostly are).
	// The pivot row is read once, m strided reads down the column-major
	// B⁻¹; each support column is then updated in place. Every updated
	// entry receives the one operation x -= f·v with the same f and v as
	// under a row-by-row sweep, so the bits do not depend on the traversal
	// order (DESIGN.md §5b).
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
	// Sweep each support column over all of dir, four columns per pass
	// (kernels.go).
	// A row where dir is zero gets x -= 0·v, which leaves x as it was up
	// to the sign of a zero; zeroing dir[leave] does the same for the
	// pivot row, which keeps its scaled value.
	dir[leave] = 0
	k := 0
	for ; k+3 < len(sup); k += 4 {
		sweep4(dir, binv[int(sup[k])*m:], binv[int(sup[k+1])*m:], binv[int(sup[k+2])*m:], binv[int(sup[k+3])*m:],
			val[k], val[k+1], val[k+2], val[k+3])
	}
	for ; k < len(sup); k++ {
		sweep1(dir, binv[int(sup[k])*m:], val[k])
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

// refactorize rebuilds B⁻¹ and x_B from the basis definition to wash out
// accumulated floating-point drift. It is O(m³) in the worst case; the
// elimination visits only the nonzero support of each scaled pivot row.
func (s *PackingSolver) refactorize() {
	m := s.m
	// Build B augmented with identity, Gauss-Jordan to invert. The m×2m
	// workspace is retained across refactorizations (every 2000 pivots)
	// and zeroed explicitly, matching a fresh allocation bit-for-bit.
	if len(s.refacBuf) != m {
		s.refacBuf = make([][]float64, m)
		for i := range s.refacBuf {
			s.refacBuf[i] = make([]float64, 2*m)
		}
	}
	bmat := s.refacBuf
	for i := 0; i < m; i++ {
		row := bmat[i]
		for j := range row {
			row[j] = 0
		}
		row[m+i] = 1
	}
	for k, id := range s.basis {
		if id >= 0 {
			for _, e := range s.col[id].entries {
				bmat[e.Index][k] = e.Value
			}
		} else {
			bmat[-id-1][k] = 1
		}
	}
	for c := 0; c < m; c++ {
		// Partial pivoting.
		p := c
		for r := c + 1; r < m; r++ {
			if math.Abs(bmat[r][c]) > math.Abs(bmat[p][c]) {
				p = r
			}
		}
		if math.Abs(bmat[p][c]) < 1e-12 {
			// Numerically singular basis; fall back to a fresh slack
			// basis (correct, loses warm start).
			s.resetBasis()
			return
		}
		bmat[c], bmat[p] = bmat[p], bmat[c]
		pr := bmat[c]
		inv := 1 / pr[c]
		// Scale the whole pivot row, then eliminate over its nonzero
		// support only: f·0 = 0 leaves the skipped entries unchanged, up
		// to the sign of a zero, which no value computed from B⁻¹ can
		// observe (DESIGN.md §5b).
		sup := s.supBuf[:0]
		for j := c; j < 2*m; j++ {
			pr[j] *= inv
			if pr[j] != 0 {
				sup = append(sup, int32(j))
			}
		}
		s.supBuf = sup
		for r := 0; r < m; r++ {
			if r == c {
				continue
			}
			row := bmat[r]
			f := row[c]
			if f == 0 {
				continue
			}
			for _, j := range sup {
				row[j] -= f * pr[j]
			}
		}
	}
	for i := 0; i < m; i++ {
		for j, v := range bmat[i][m:] {
			s.binv[j*m+i] = v
		}
	}
	// x_B = B⁻¹ b: x_B[i] sums B⁻¹[i][j]·b[j] over ascending j, one
	// contiguous column of B⁻¹ per j.
	clear(s.xb)
	for j, bj := range s.b {
		col := s.binv[j*m : j*m+m]
		for i := range s.xb {
			s.xb[i] += col[i] * bj
		}
	}
	for i, v := range s.xb {
		if v < 0 && v > -1e-7 {
			s.xb[i] = 0
		}
	}
	// Wash the incremental duals along with B⁻¹: they accumulate the same
	// floating-point drift.
	s.computeDuals()
}
