// Package lp implements the linear-programming substrate: a revised primal
// simplex for packing LPs (max cᵀx, Ax ≤ b, x ≥ 0, b ≥ 0) that accepts
// columns between solves and warm-starts from the current basis, which
// makes it the master problem of the column-generation loop in
// internal/flow. It is the only LP solver the schedulers run.
//
// The paper's evaluation used PuLP/CBC; this package replaces it with a
// stdlib-only solver (see DESIGN.md §2 for the substitution argument).
// Tests judge it, and the column-generation stack built on it, against
// the exact big.Rat simplex in internal/lp/lptest.
package lp

import "fmt"

// Status reports the outcome of a solve.
type Status int

const (
	// StatusOptimal means an optimal basic feasible solution was found.
	StatusOptimal Status = iota + 1
	// StatusUnbounded means the objective is unbounded above.
	StatusUnbounded
	// StatusIterLimit means the iteration cap was hit before convergence.
	StatusIterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Entry is one nonzero coefficient of a sparse column.
type Entry struct {
	Index int // row index
	Value float64
}

const (
	// tol is the general feasibility/optimality tolerance.
	tol = 1e-9
	// pivotTol rejects pivots that would divide by a tiny element.
	pivotTol = 1e-10
)
