package greedy_test

import (
	"fmt"

	"see/internal/engines"
	"see/internal/greedy"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// Example runs the non-LP baseline on the paper's Fig. 2 fixture. Planning
// is deterministic at construction; the rng drives only the physical phase
// and the swaps, so a fixed seed reproduces the slot exactly.
func Example() {
	net, pairs := topo.Motivation()
	enum, _ := engines.Enumeration(sched.Greedy)
	set, err := segment.Build(net, pairs, enum)
	if err != nil {
		panic(err)
	}
	eng, err := greedy.New(set, set.ConnCap(nil), sched.SlotConfig{Algorithm: sched.Greedy})
	if err != nil {
		panic(err)
	}
	res, err := eng.RunSlot(xrand.New(3))
	if err != nil {
		panic(err)
	}
	fmt.Println("algorithm:", eng.Algorithm())
	fmt.Printf("planned=%d provisioned=%d established=%d\n",
		res.PlannedPaths, res.ProvisionedPaths, res.Established)
	// Output:
	// algorithm: Greedy
	// planned=2 provisioned=2 established=2
}
