package schedtest

import (
	"testing"

	"see/internal/engines"
	"see/internal/sched"
)

// TestSlotAllocs guards the allocation-free slot: once an untraced
// engine's slot-scoped storage (segment arena, connections, result, pool,
// stitch and plan buffers) has grown to the instance, a Greedy, Contend or
// SEE slot allocates nothing. Measured at 0 allocs per slot for all three,
// here and on BenchmarkSlot{Greedy,Contend,SEE}'s paper-scale instance,
// down from 65, 66 and 110 when every slot allocated its segments,
// connections and result afresh.
func TestSlotAllocs(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		alg sched.Algorithm
		max float64
	}{
		{sched.Greedy, 0},
		{sched.Contend, 0},
		{sched.SEE, 0},
	} {
		t.Run(tc.alg.String(), func(t *testing.T) {
			eng, err := engines.New(tc.alg, net, pairs, engines.Config{})
			if err != nil {
				t.Fatal(err)
			}
			rng := NewRng(testSeed)
			slot := func() {
				if _, err := eng.RunSlot(rng); err != nil {
					t.Fatal(err)
				}
			}
			// Grow every reused buffer to the instance first.
			for range 50 {
				slot()
			}
			if got := testing.AllocsPerRun(200, slot); got > tc.max {
				t.Errorf("%v slot allocates %v times, want at most %v", tc.alg, got, tc.max)
			}
		})
	}
}
