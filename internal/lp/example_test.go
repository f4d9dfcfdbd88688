package lp_test

import (
	"fmt"
	"log"

	"see/internal/lp"
)

// The packing solver accepts columns incrementally — the shape column
// generation needs.
func ExamplePackingSolver() {
	s, err := lp.NewPacking([]float64{10})
	if err != nil {
		log.Fatal(err)
	}
	s.AddColumn(1, []lp.Entry{{Index: 0, Value: 1}})
	s.SolveCtx(nil)
	before := s.Objective()

	// A better column arrives (e.g. priced out by an oracle).
	s.AddColumn(3, []lp.Entry{{Index: 0, Value: 1}})
	s.SolveCtx(nil)
	fmt.Printf("before=%.0f after=%.0f dual=%.0f\n", before, s.Objective(), s.Duals()[0])
	// Output: before=10 after=30 dual=3
}

// ExamplePackingSolver_warmStart shows the warm-start contract the
// column-generation loop in internal/flow relies on: AddColumn never
// invalidates the current basis, so a re-solve after pricing in a new
// column resumes from the previous optimum and only performs the pivots
// the new column forces — while a cold solver handed the same final column
// set replays the whole trajectory. Both land on the identical optimum;
// see DESIGN.md §9 for why between-slot reuse builds on exactly this.
func ExamplePackingSolver_warmStart() {
	rhs := []float64{1, 1, 1, 1}
	unit := func(i int) []lp.Entry { return []lp.Entry{{Index: i, Value: 1}} }

	warm, err := lp.NewPacking(rhs)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		warm.AddColumn(1, unit(i))
	}
	warm.SolveCtx(nil)
	base := warm.Pivots()

	// Price in one more column and re-solve from the current basis.
	extra := []lp.Entry{{Index: 0, Value: 1}, {Index: 1, Value: 1}}
	warm.AddColumn(2.5, extra)
	warm.SolveCtx(nil)
	warmPivots := warm.Pivots() - base

	// A cold solver sees all five columns from scratch.
	cold, err := lp.NewPacking(rhs)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		cold.AddColumn(1, unit(i))
	}
	cold.AddColumn(2.5, extra)
	cold.SolveCtx(nil)

	fmt.Printf("objectives equal: %v\n", warm.Objective() == cold.Objective())
	fmt.Printf("warm re-solve pivots: %d (cold solve: %d)\n", warmPivots, cold.Pivots())
	// Output:
	// objectives equal: true
	// warm re-solve pivots: 1 (cold solve: 4)
}
