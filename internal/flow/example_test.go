package flow_test

import (
	"fmt"
	"log"
	"reflect"

	"see/internal/flow"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// ExampleSolveCtx_arena shows column-pool reuse across solves: REPS's
// progressive rounding re-solves the LP on residual capacities up to six
// times over the same segment set, and an Arena carries the
// dual-independent candidate tables (attempt factors, master-row indices)
// and pricing scratch between those solves instead of rebuilding them.
// Reuse is observationally transparent — the arena-backed solution is
// byte-identical to a cold one, because the pooled tables are pure
// functions of the segment set.
func ExampleSolveCtx_arena() {
	cfg := topo.DefaultConfig()
	cfg.Nodes = 24
	net, err := topo.Generate(cfg, xrand.New(3))
	if err != nil {
		log.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 3, xrand.New(4))
	set, err := segment.Build(net, pairs, segment.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	cold, err := flow.SolveCtx(nil, set, flow.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Two sequential solves sharing one arena: the second reuses the
	// pooled tables the first built.
	arena := &flow.Arena{}
	first, err := flow.SolveCtx(nil, set, flow.Options{Arena: arena})
	if err != nil {
		log.Fatal(err)
	}
	second, err := flow.SolveCtx(nil, set, flow.Options{Arena: arena})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("arena solve matches cold: %v\n", reflect.DeepEqual(first, cold))
	fmt.Printf("arena re-solve matches cold: %v\n", reflect.DeepEqual(second, cold))
	// Output:
	// arena solve matches cold: true
	// arena re-solve matches cold: true
}
