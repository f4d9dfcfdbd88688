package lp

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"see/internal/lp/lptest"
)

func TestPackingSimple(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6.
	s, err := NewPacking([]float64{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddColumn(3, []Entry{{0, 1}, {1, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddColumn(2, []Entry{{0, 1}, {1, 3}}); err != nil {
		t.Fatal(err)
	}
	st, err := s.SolveCtx(nil)
	if err != nil || st != StatusOptimal {
		t.Fatalf("Solve: %v %v", st, err)
	}
	if math.Abs(s.Objective()-12) > 1e-7 {
		t.Fatalf("objective = %v, want 12", s.Objective())
	}
	if x := s.Primals(); math.Abs(x[0]-4) > 1e-7 || math.Abs(x[1]) > 1e-7 {
		t.Fatalf("primal = %v want 4,0", x)
	}
}

func TestPackingRejectsBadInput(t *testing.T) {
	if _, err := NewPacking([]float64{-1}); err == nil {
		t.Fatal("negative rhs accepted")
	}
	if _, err := NewPacking([]float64{math.NaN()}); err == nil {
		t.Fatal("NaN rhs accepted")
	}
	s, _ := NewPacking([]float64{1})
	if _, err := s.AddColumn(1, []Entry{{5, 1}}); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := s.AddColumn(math.Inf(1), nil); err == nil {
		t.Fatal("infinite objective accepted")
	}
	if _, err := s.AddColumn(1, []Entry{{0, math.NaN()}}); err == nil {
		t.Fatal("NaN coefficient accepted")
	}
}

func TestPackingUnbounded(t *testing.T) {
	s, _ := NewPacking([]float64{5})
	// Column with no positive entries and positive objective is unbounded.
	s.AddColumn(1, nil)
	st, err := s.SolveCtx(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", st)
	}
}

func TestPackingZeroRHS(t *testing.T) {
	// Degenerate at zero: optimum is 0, no pivoting storm.
	s, _ := NewPacking([]float64{0, 0})
	s.AddColumn(5, []Entry{{0, 1}})
	s.AddColumn(3, []Entry{{1, 2}})
	st, err := s.SolveCtx(nil)
	if err != nil || st != StatusOptimal {
		t.Fatalf("Solve: %v %v", st, err)
	}
	if s.Objective() != 0 {
		t.Fatalf("objective = %v, want 0", s.Objective())
	}
}

func TestPackingIncrementalColumns(t *testing.T) {
	// Solve, add a better column, re-solve warm.
	s, _ := NewPacking([]float64{10})
	s.AddColumn(1, []Entry{{0, 1}})
	if st, _ := s.SolveCtx(nil); st != StatusOptimal {
		t.Fatal("first solve failed")
	}
	if math.Abs(s.Objective()-10) > 1e-7 {
		t.Fatalf("objective = %v, want 10", s.Objective())
	}
	j, _ := s.AddColumn(3, []Entry{{0, 1}})
	if st, _ := s.SolveCtx(nil); st != StatusOptimal {
		t.Fatal("second solve failed")
	}
	if math.Abs(s.Objective()-30) > 1e-7 {
		t.Fatalf("objective = %v, want 30 after adding better column", s.Objective())
	}
	if x := s.Primals()[j]; math.Abs(x-10) > 1e-7 {
		t.Fatalf("new column value = %v, want 10", x)
	}
}

func TestPackingDuplicateRowEntriesMerged(t *testing.T) {
	s, _ := NewPacking([]float64{4})
	s.AddColumn(1, []Entry{{0, 1}, {0, 1}}) // effectively 2x <= 4
	if st, _ := s.SolveCtx(nil); st != StatusOptimal {
		t.Fatal("solve failed")
	}
	if math.Abs(s.Objective()-2) > 1e-7 {
		t.Fatalf("objective = %v, want 2", s.Objective())
	}
}

func TestPackingDuals(t *testing.T) {
	// max 3x+2y, x+y<=4, x+3y<=6. Optimal basis x, slack2: dual = (3, 0).
	s, _ := NewPacking([]float64{4, 6})
	s.AddColumn(3, []Entry{{0, 1}, {1, 1}})
	s.AddColumn(2, []Entry{{0, 1}, {1, 3}})
	if st, _ := s.SolveCtx(nil); st != StatusOptimal {
		t.Fatal("solve failed")
	}
	y := s.Duals()
	if math.Abs(y[0]-3) > 1e-7 || math.Abs(y[1]) > 1e-7 {
		t.Fatalf("duals = %v, want [3 0]", y)
	}
	// Strong duality: yᵀb == objective.
	if math.Abs(y[0]*4+y[1]*6-s.Objective()) > 1e-7 {
		t.Fatal("strong duality violated")
	}
}

// randomPacking builds a random packing LP in the packing solver and
// returns it in dense form too: objective c, right-hand side b and rows
// (rows[i][j] is the coefficient of column j in row i).
func randomPacking(rng *rand.Rand, m, n int) (ps *PackingSolver, c, b []float64, rows [][]float64) {
	b = make([]float64, m)
	for i := range b {
		b[i] = 1 + rng.Float64()*9
	}
	ps, _ = NewPacking(b)
	c = make([]float64, n)
	rows = make([][]float64, m)
	for i := range rows {
		rows[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		c[j] = rng.Float64() * 4
		var entries []Entry
		nnz := 1 + rng.Intn(m)
		for k := 0; k < nnz; k++ {
			r := rng.Intn(m)
			v := 0.1 + rng.Float64()*2
			entries = append(entries, Entry{r, v})
			rows[r][j] += v
		}
		ps.AddColumn(c[j], entries)
	}
	return ps, c, b, rows
}

// exactDot returns a·x in exact rational arithmetic, so a feasibility
// check on a float point cannot itself round.
func exactDot(a, x []float64) *big.Rat {
	var sum, ai, xi big.Rat
	for j := range a {
		sum.Add(&sum, ai.Mul(ai.SetFloat64(a[j]), xi.SetFloat64(x[j])))
	}
	return &sum
}

// checkAgainstExact solves the packing LP (c, rows, b) exactly and checks
// the solver's optimum against it: objectives within 1e-9·(1+|opt|), each
// row's activity at the float primal computed exactly and within
// 1e-9·(1+bᵢ) of its bound, x ≥ 0, y ≥ −1e-9 and strong duality.
func checkAgainstExact(t *testing.T, name string, ps *PackingSolver, c, b []float64, rows [][]float64) {
	t.Helper()
	st, err := ps.SolveCtx(nil)
	if err != nil || st != StatusOptimal {
		t.Fatalf("%s: packing solve %v %v", name, st, err)
	}
	exact, err := lptest.Solve(c, rows, b)
	if err != nil {
		t.Fatalf("%s: exact solve: %v", name, err)
	}
	opt, _ := exact.Objective.Float64()
	if math.Abs(ps.Objective()-opt) > 1e-9*(1+math.Abs(opt)) {
		t.Fatalf("%s: packing %v != exact %v", name, ps.Objective(), exact.Objective.FloatString(15))
	}
	x := ps.Primals()
	for j, v := range x {
		if v < 0 {
			t.Fatalf("%s: x[%d] = %v < 0", name, j, v)
		}
	}
	for i, row := range rows {
		slack := new(big.Rat).SetFloat64(b[i] + 1e-9*(1+b[i]))
		if lhs := exactDot(row, x); lhs.Cmp(slack) > 0 {
			t.Fatalf("%s: row %d violated: %v > %v", name, i, lhs.FloatString(15), b[i])
		}
	}
	y := ps.Duals()
	var yb float64
	for i := range y {
		if y[i] < -1e-9 {
			t.Fatalf("%s: dual %d negative: %v", name, i, y[i])
		}
		yb += y[i] * b[i]
	}
	if math.Abs(yb-opt) > 1e-9*(1+math.Abs(opt)) {
		t.Fatalf("%s: strong duality gap: yb=%v opt=%v", name, yb, opt)
	}
}

// packingFrom loads the dense packing LP (c, b, rows) into a new solver.
func packingFrom(t *testing.T, c, b []float64, rows [][]float64) *PackingSolver {
	t.Helper()
	ps, err := NewPacking(b)
	if err != nil {
		t.Fatal(err)
	}
	for j, cj := range c {
		var entries []Entry
		for i, row := range rows {
			if row[j] != 0 {
				entries = append(entries, Entry{i, row[j]})
			}
		}
		if _, err := ps.AddColumn(cj, entries); err != nil {
			t.Fatal(err)
		}
	}
	return ps
}

// Property: the packing solver matches the exact dense referee
// (internal/lp/lptest) on random packing LPs, its primal is feasible
// and strong duality holds. Each LP is solved a second time with B⁻¹ and
// the duals refactorized on the final pivot: the refactorization must
// reproduce the incremental duals, so the optimality test stops the solve
// on the same pivot and the optimum still matches.
func TestPackingMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(8)
		n := 1 + rng.Intn(12)
		ps, c, b, rows := randomPacking(rng, m, n)
		name := fmt.Sprintf("trial %d", trial)
		checkAgainstExact(t, name, ps, c, b, rows)
		again := packingFrom(t, c, b, rows)
		again.pivots = 2000 - ps.Pivots()
		checkAgainstExact(t, name+" refactorized", again, c, b, rows)
		if got := again.Pivots() - 2000; got != 0 {
			t.Fatalf("%s: refactorizing on the final pivot cost %d more pivots", name, got)
		}
	}
}

// Degenerate packing LPs against the exact referee: duplicate columns, a
// zero-objective column, and rows that are tight at the optimum.
func TestPackingDegenerateMatchesDense(t *testing.T) {
	for _, tc := range []struct {
		name string
		c, b []float64
		rows [][]float64
	}{
		{"duplicate columns", []float64{2, 2, 1}, []float64{3, 4},
			[][]float64{{1, 1, 0.5}, {0.5, 0.5, 1}}},
		{"zero-objective column", []float64{0, 1, 3}, []float64{2, 5},
			[][]float64{{1, 1, 1}, {0.25, 2, 3}}},
		// x = y = 1 makes all three rows tight, one more than the basis
		// needs: a primal-degenerate vertex.
		{"tight rows", []float64{1, 1}, []float64{2, 3, 3},
			[][]float64{{1, 1}, {2, 1}, {1, 2}}},
		{"tight rows, zero rhs", []float64{1, 2, 0.5}, []float64{0, 1, 1},
			[][]float64{{1, 0, 0}, {0, 1, 1}, {0, 1, 1}}},
		{"duplicate columns, tight rows", []float64{0.3, 0.3, 0.7, 0.7},
			[]float64{1.5, 1.5, 2.1},
			[][]float64{{1, 1, 0.5, 0.5}, {0.5, 0.5, 1, 1}, {0.7, 0.7, 0.7, 0.7}}},
	} {
		checkAgainstExact(t, tc.name, packingFrom(t, tc.c, tc.b, tc.rows), tc.c, tc.b, tc.rows)
	}
	// Random LPs where every column appears twice.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		m, n := 2+rng.Intn(5), 2+rng.Intn(6)
		_, c, b, rows := randomPacking(rng, m, n)
		c = append(c, c...)
		for i := range rows {
			rows[i] = append(rows[i], rows[i]...)
		}
		checkAgainstExact(t, fmt.Sprintf("doubled trial %d", trial), packingFrom(t, c, b, rows), c, b, rows)
	}
}

// Property: after optimality every column's reduced cost is <= tolerance.
func TestPackingOptimalityCondition(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(6)
		n := 2 + rng.Intn(10)
		ps, _, _, _ := randomPacking(rng, m, n)
		if st, _ := ps.SolveCtx(nil); st != StatusOptimal {
			t.Fatalf("trial %d: not optimal", trial)
		}
		y := ps.Duals()
		for j := 0; j < len(ps.col); j++ {
			rc := ps.col[j].obj
			for _, e := range ps.col[j].entries {
				rc -= y[e.Index] * e.Value
			}
			if rc > 1e-6 {
				t.Fatalf("trial %d: column %d has positive reduced cost %v at optimum", trial, j, rc)
			}
		}
	}
}

func TestPackingRefactorizeStability(t *testing.T) {
	// Refactorize B⁻¹ mid-solve and verify the optimum still matches the
	// exact referee.
	rng := rand.New(rand.NewSource(13))
	ps, c, b, rows := randomPacking(rng, 6, 40)
	ps.pivots = 1999 // trigger refactorization on the first pivot
	checkAgainstExact(t, "after refactorization", ps, c, b, rows)
}

// Property: the incrementally maintained duals (updated in O(m) per pivot)
// match a from-scratch c_B·B⁻¹ product after arbitrary solve / add-column
// sequences, and the basis-row index agrees with a linear basis scan.
func TestPackingIncrementalStateMatchesScratch(t *testing.T) {
	checkState := func(trial int, ps *PackingSolver) {
		t.Helper()
		// Duals from scratch.
		want := make([]float64, ps.m)
		for i := 0; i < ps.m; i++ {
			cb := ps.objOf(ps.basis[i])
			if cb == 0 {
				continue
			}
			for j := 0; j < ps.m; j++ {
				want[j] += cb * binvAt(ps, i, j)
			}
		}
		for j := range want {
			if math.Abs(ps.y[j]-want[j]) > 1e-6*(1+math.Abs(want[j])) {
				t.Fatalf("trial %d: incremental dual %d = %v, scratch %v", trial, j, ps.y[j], want[j])
			}
		}
		// slackInBasis against the basis definition.
		for r := 0; r < ps.m; r++ {
			want := false
			for _, bi := range ps.basis {
				if bi == -(r + 1) {
					want = true
				}
			}
			if ps.slackInBasis[r] != want {
				t.Fatalf("trial %d: slackInBasis[%d] = %v, want %v", trial, r, ps.slackInBasis[r], want)
			}
		}
	}

	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(7)
		n := 2 + rng.Intn(12)
		ps, _, _, _ := randomPacking(rng, m, n)
		if st, _ := ps.SolveCtx(nil); st != StatusOptimal {
			t.Fatalf("trial %d: not optimal", trial)
		}
		checkState(trial, ps)
		// Column generation pattern: add columns against the duals, re-solve
		// warm, re-check.
		y := ps.Duals()
		for k := 0; k < 3; k++ {
			r := rng.Intn(m)
			obj := y[r]*2 + 0.5 // guaranteed-attractive column on row r
			ps.AddColumn(obj, []Entry{{Index: r, Value: 1}})
		}
		if st, _ := ps.SolveCtx(nil); st != StatusOptimal {
			t.Fatalf("trial %d: warm re-solve not optimal", trial)
		}
		checkState(trial, ps)
	}
}

// Reset must leave no trace of the previous problem: a solver reset onto
// a new right-hand side (smaller or larger than before) and given the
// same columns reproduces a fresh solver's state bit for bit.
func TestPackingResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reused, err := NewPacking(nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 12; trial++ {
		m := 2 + rng.Intn(30)
		b := make([]float64, m)
		for i := range b {
			b[i] = float64(rng.Intn(8))
		}
		if err := reused.Reset(b); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewPacking(b)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4*m; k++ {
			es := []Entry{{Index: rng.Intn(m), Value: 0.1 + rng.Float64()}, {Index: rng.Intn(m), Value: 0.1 + rng.Float64()}}
			obj := 0.5 + rng.Float64()
			for _, s := range []*PackingSolver{reused, fresh} {
				if _, err := s.AddColumn(obj, es); err != nil {
					t.Fatal(err)
				}
			}
		}
		if trial%3 == 0 {
			// Refactorize on the first pivot of both.
			reused.pivots, fresh.pivots = 1999, 1999
		}
		for _, s := range []*PackingSolver{reused, fresh} {
			if st, err := s.SolveCtx(nil); err != nil || st != StatusOptimal {
				t.Fatalf("trial %d: %v %v", trial, st, err)
			}
		}
		if got, want := packingBits(reused), packingBits(fresh); got != want {
			t.Fatalf("trial %d: reset solver state %016x, fresh %016x", trial, got, want)
		}
	}
	if err := reused.Reset([]float64{1, -1}); err == nil {
		t.Fatal("negative rhs accepted by Reset")
	}
}
