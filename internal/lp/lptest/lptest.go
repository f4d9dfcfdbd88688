// Package lptest is the exact referee for the float LP solvers: the
// packing master in internal/lp and the column-generation stack in
// internal/flow. Solve maximizes cᵀx subject to Ax ≤ b, x ≥ 0 with b ≥ 0
// by a single-phase tableau simplex in math/big.Rat arithmetic under
// Bland's rule, so the optimum it reports cannot round and the method
// cannot cycle. Every float64 input converts to a rational exactly.
//
// With b ≥ 0 the all-slack basis is feasible, so there is no phase 1 and
// no artificial variable. Write an equality row a·x = 0 as the two rows
// a·x ≤ 0 and −a·x ≤ 0. The package does not import internal/lp, so that
// package's own tests can use it.
package lptest

import (
	"errors"
	"fmt"
	"math/big"
)

// ErrUnbounded reports an objective that is unbounded above.
var ErrUnbounded = errors.New("lptest: objective unbounded")

// Solution is an exact optimum.
type Solution struct {
	// Objective is cᵀx at the optimal vertex.
	Objective *big.Rat
	// X is the optimal vertex, one entry per column.
	X []*big.Rat
}

// Solve maximizes cᵀx subject to Ax ≤ b, x ≥ 0. Row i of a holds the
// coefficients of constraint i, one per variable. It returns an error for
// ragged input, a negative bᵢ or a value that is not finite, and
// ErrUnbounded when no optimum exists.
func Solve(c []float64, a [][]float64, b []float64) (*Solution, error) {
	m, n := len(b), len(c)
	if len(a) != m {
		return nil, fmt.Errorf("lptest: %d rows but %d right-hand sides", len(a), m)
	}
	// Columns: n structural, m slack, then the right-hand side. Row m is
	// the objective row: reduced costs cⱼ − c_B·B⁻¹Aⱼ, and −z in the rhs.
	rhs := n + m
	tab := make([][]big.Rat, m+1)
	for i, row := range a {
		if len(row) != n {
			return nil, fmt.Errorf("lptest: row %d has %d coefficients, want %d", i, len(row), n)
		}
		if b[i] < 0 {
			return nil, fmt.Errorf("lptest: b[%d] = %v is negative", i, b[i])
		}
		tab[i] = make([]big.Rat, rhs+1)
		if err := setFloats(tab[i], row); err != nil {
			return nil, err
		}
		if err := setFloats(tab[i][rhs:], b[i:i+1]); err != nil {
			return nil, err
		}
		tab[i][n+i].SetInt64(1)
	}
	tab[m] = make([]big.Rat, rhs+1)
	if err := setFloats(tab[m], c); err != nil {
		return nil, err
	}
	basis := make([]int, m)
	for i := range basis {
		basis[i] = n + i
	}

	obj := tab[m]
	var ratio, best big.Rat
	for {
		// Bland: the lowest-index column with a positive reduced cost
		// enters, and ratio ties leave by the lowest-index basic variable.
		e := 0
		for e < rhs && obj[e].Sign() <= 0 {
			e++
		}
		if e == rhs {
			break
		}
		r := -1
		for i := 0; i < m; i++ {
			if tab[i][e].Sign() <= 0 {
				continue
			}
			ratio.Quo(&tab[i][rhs], &tab[i][e])
			if d := ratio.Cmp(&best); r < 0 || d < 0 || d == 0 && basis[i] < basis[r] {
				r = i
				best.Set(&ratio)
			}
		}
		if r < 0 {
			return nil, ErrUnbounded
		}
		pivot(tab, r, e)
		basis[r] = e
	}

	sol := &Solution{Objective: new(big.Rat).Neg(&obj[rhs]), X: make([]*big.Rat, n)}
	for j := range sol.X {
		sol.X[j] = new(big.Rat)
	}
	for i, v := range basis {
		if v < n {
			sol.X[v].Set(&tab[i][rhs])
		}
	}
	return sol, nil
}

// pivot makes column e basic in row r: it scales row r to a unit pivot and
// eliminates column e from every other row, the objective row included.
func pivot(tab [][]big.Rat, r, e int) {
	prow := tab[r]
	var inv, t big.Rat
	inv.Inv(&prow[e])
	var nz []int
	for k := range prow {
		if prow[k].Sign() != 0 {
			prow[k].Mul(&prow[k], &inv)
			nz = append(nz, k)
		}
	}
	for i, row := range tab {
		if i == r || row[e].Sign() == 0 {
			continue
		}
		f := new(big.Rat).Set(&row[e])
		for _, k := range nz {
			row[k].Sub(&row[k], t.Mul(f, &prow[k]))
		}
	}
}

// setFloats stores vs exactly in the leading entries of dst, which must
// be zero.
func setFloats(dst []big.Rat, vs []float64) error {
	for j, v := range vs {
		if v != 0 && dst[j].SetFloat64(v) == nil {
			return fmt.Errorf("lptest: value %v is not finite", v)
		}
	}
	return nil
}
