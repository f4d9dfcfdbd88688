package contend_test

import (
	"fmt"

	"see/internal/contend"
	"see/internal/engines"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// Example runs the contention-aware engine on the paper's Fig. 2 fixture.
// Path selection and the contention accounting are deterministic at
// construction; the rng drives only segment attempts, recovery attempts
// and swaps, so a fixed seed reproduces the slot exactly.
func Example() {
	net, pairs := topo.Motivation()
	enum, _ := engines.Enumeration(sched.Contend)
	set, err := segment.Build(net, pairs, enum)
	if err != nil {
		panic(err)
	}
	eng, err := contend.New(set, set.ConnCap(nil), contend.DefaultOptions())
	if err != nil {
		panic(err)
	}
	res, err := eng.RunSlot(xrand.New(3))
	if err != nil {
		panic(err)
	}
	fmt.Println("algorithm:", eng.Algorithm())
	fmt.Printf("planned=%d established=%d\n", res.PlannedPaths, res.Established)
	// Output:
	// algorithm: Contend
	// planned=2 established=2
}
