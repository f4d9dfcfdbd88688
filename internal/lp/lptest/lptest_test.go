package lptest

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func mustSolve(t *testing.T, c []float64, a [][]float64, b []float64) *Solution {
	t.Helper()
	sol, err := Solve(c, a, b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

// rat parses an exact rational such as "12" or "1/3".
func rat(s string) *big.Rat {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		panic(s)
	}
	return r
}

func TestSimpleMax(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12.
	sol := mustSolve(t, []float64{3, 2}, [][]float64{{1, 1}, {1, 3}}, []float64{4, 6})
	if sol.Objective.Cmp(rat("12")) != 0 {
		t.Fatalf("objective = %v, want 12", sol.Objective)
	}
	if sol.X[0].Cmp(rat("4")) != 0 || sol.X[1].Sign() != 0 {
		t.Fatalf("x = %v, want [4 0]", sol.X)
	}
}

func TestFractionalOptimumIsExact(t *testing.T) {
	// max x + y s.t. 3x + y <= 1, x + 3y <= 1 -> x = y = 1/4, obj = 1/2.
	sol := mustSolve(t, []float64{1, 1}, [][]float64{{3, 1}, {1, 3}}, []float64{1, 1})
	if sol.Objective.Cmp(rat("1/2")) != 0 {
		t.Fatalf("objective = %v, want 1/2", sol.Objective)
	}
	for j, x := range sol.X {
		if x.Cmp(rat("1/4")) != 0 {
			t.Fatalf("x[%d] = %v, want 1/4", j, x)
		}
	}
}

// The classic cycling LP: largest-coefficient pivoting cycles on it, so
// Bland's rule must terminate, at objective exactly 1.
func TestDegenerate(t *testing.T) {
	sol := mustSolve(t,
		[]float64{10, -57, -9},
		[][]float64{{0.5, -5.5, -2.5}, {0.5, -1.5, -0.5}, {1, 0, 0}},
		[]float64{0, 0, 1})
	if sol.Objective.Cmp(rat("1")) != 0 {
		t.Fatalf("objective = %v, want 1", sol.Objective)
	}
}

func TestZeroRHS(t *testing.T) {
	sol := mustSolve(t, []float64{5, 3}, [][]float64{{1, 0}, {0, 2}}, []float64{0, 0})
	if sol.Objective.Sign() != 0 {
		t.Fatalf("objective = %v, want 0", sol.Objective)
	}
}

func TestUnbounded(t *testing.T) {
	// x is free to grow: its only row does not bound it.
	_, err := Solve([]float64{1, 0}, [][]float64{{0, 1}}, []float64{5})
	if !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
	_, err = Solve([]float64{1, 1}, [][]float64{{1, -1}}, []float64{5})
	if !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

func TestRejectsBadInput(t *testing.T) {
	for name, tc := range map[string]struct {
		c []float64
		a [][]float64
		b []float64
	}{
		"negative b":    {[]float64{1}, [][]float64{{1}}, []float64{-1}},
		"NaN b":         {[]float64{1}, [][]float64{{1}}, []float64{math.NaN()}},
		"infinite b":    {[]float64{1}, [][]float64{{1}}, []float64{math.Inf(1)}},
		"NaN objective": {[]float64{math.NaN()}, [][]float64{{1}}, []float64{1}},
		"infinite a":    {[]float64{1}, [][]float64{{math.Inf(-1)}}, []float64{1}},
		"ragged row":    {[]float64{1, 1}, [][]float64{{1}}, []float64{1}},
		"row count":     {[]float64{1}, [][]float64{{1}, {1}}, []float64{1}},
	} {
		if _, err := Solve(tc.c, tc.a, tc.b); err == nil || errors.Is(err, ErrUnbounded) {
			t.Errorf("%s: err = %v, want an input error", name, err)
		}
	}
}

// bruteForceBox maximizes over a fine grid; used as an oracle for tiny LPs
// with box-bounded feasible regions.
func bruteForceBox(obj []float64, feasible func(x []float64) bool, hi float64, steps int) float64 {
	best := math.Inf(-1)
	n := len(obj)
	x := make([]float64, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if feasible(x) {
				v := 0.0
				for j := range x {
					v += obj[j] * x[j]
				}
				if v > best {
					best = v
				}
			}
			return
		}
		for s := 0; s <= steps; s++ {
			x[i] = hi * float64(s) / float64(steps)
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// Property: on random 2-3 variable boxed LPs the exact optimum matches a
// grid brute force to grid resolution, and the returned vertex satisfies
// every row exactly.
func TestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(2)
		obj := make([]float64, n)
		for j := range obj {
			obj[j] = rng.Float64() * 5
		}
		var a [][]float64
		var b []float64
		for i, m := 0, 1+rng.Intn(3); i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = rng.Float64() * 2
			}
			a = append(a, row)
			b = append(b, 1+rng.Float64()*5)
		}
		rows := len(a)
		// Box to make brute force finite.
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			a = append(a, row)
			b = append(b, 10)
		}
		sol := mustSolve(t, obj, a, b)
		feasible := func(x []float64) bool {
			for i := 0; i < rows; i++ {
				s := 0.0
				for j := range x {
					s += a[i][j] * x[j]
				}
				if s > b[i]+1e-9 {
					return false
				}
			}
			return true
		}
		bf := bruteForceBox(obj, feasible, 10, 40)
		got, _ := sol.Objective.Float64()
		if got < bf-0.5 || got > bf+1.5 {
			t.Fatalf("trial %d: simplex %v, brute force %v", trial, got, bf)
		}
		// The vertex is feasible and attains the objective, exactly.
		var val, t1 big.Rat
		for j, x := range sol.X {
			if x.Sign() < 0 {
				t.Fatalf("trial %d: x[%d] = %v < 0", trial, j, x)
			}
			val.Add(&val, t1.Mul(new(big.Rat).SetFloat64(obj[j]), x))
		}
		if val.Cmp(sol.Objective) != 0 {
			t.Fatalf("trial %d: cᵀx = %v, Objective %v", trial, &val, sol.Objective)
		}
		for i, row := range a {
			var lhs big.Rat
			for j, x := range sol.X {
				lhs.Add(&lhs, t1.Mul(new(big.Rat).SetFloat64(row[j]), x))
			}
			if lhs.Cmp(new(big.Rat).SetFloat64(b[i])) > 0 {
				t.Fatalf("trial %d: row %d: %v > %v", trial, i, &lhs, b[i])
			}
		}
	}
}
