package state_test

import (
	"fmt"

	"see/internal/qnet"
	"see/internal/state"
	"see/internal/topo"
)

// Example walks one segment through the bank lifecycle: deposited at the
// end of slot 0, surviving the boundary into slot 1, withdrawn for reuse.
func Example() {
	net, _ := topo.Motivation()
	b := state.NewBank(net, state.Policy{CarrySlots: 2})

	b.BeginSlot() // slot 0
	s := &qnet.Segment{A: 0, B: 2}
	accepted := b.Deposit([]*qnet.Segment{s})
	fmt.Printf("slot 0: banked %d segment(s)\n", accepted)

	expired, decohered := b.BeginSlot() // slot 1 boundary
	fmt.Printf("boundary: expired=%d decohered=%d\n", expired, decohered)

	carried := b.WithdrawAll()
	fmt.Printf("slot 1: withdrew %d segment(s), bank now holds %d\n",
		len(carried), len(b.State().Entries))
	// Output:
	// slot 0: banked 1 segment(s)
	// boundary: expired=0 decohered=0
	// slot 1: withdrew 1 segment(s), bank now holds 0
}
