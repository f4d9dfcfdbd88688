package schedtest

import (
	"testing"

	"see/internal/engines"
	"see/internal/qnet"
	"see/internal/sched"
)

// TestSlotAllocs guards the allocation-free slot: once an untraced
// engine's slot-scoped storage (segment arena, connections, result, pool,
// stitch, route-search and plan buffers) has grown to the instance, a
// Greedy, Contend, SEE, REPS or E2E slot allocates nothing, and neither
// does a SEE slot under the greedy swap order or with an attached bank
// (whose withdrawn segments trim the plan), nor a SEE or REPS slot under
// a fidelity floor that rejects assemblies (about 5 and 2 per slot).
// Measured at 0 allocs per slot for every case, here and on
// BenchmarkSlot{Greedy,Contend,SEE}'s paper-scale instance, down from 65,
// 66 and 110 when every slot allocated its segments, connections and
// result afresh.
func TestSlotAllocs(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		alg  sched.Algorithm
		cfg  engines.Config
		max  float64
	}{
		{"Greedy", sched.Greedy, engines.Config{}, 0},
		{"Contend", sched.Contend, engines.Config{}, 0},
		{"SEE", sched.SEE, engines.Config{}, 0},
		{"REPS", sched.REPS, engines.Config{}, 0},
		{"E2E", sched.E2E, engines.Config{}, 0},
		{"SEE-greedy-swap", sched.SEE, engines.Config{SwapOrder: qnet.SwapOrderGreedy}, 0},
		{"SEE-banked", sched.SEE, engines.Config{CarryOver: true, DecoherenceSlots: 2,
			CarryWernerRetention: 0.9, CarryMinWernerScale: 0.5}, 0},
		{"SEE-floored", sched.SEE, engines.Config{FidelityFloors: &qnet.FloorSpec{Default: 0.8}}, 0},
		{"REPS-floored", sched.REPS, engines.Config{FidelityFloors: &qnet.FloorSpec{Default: 0.8}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := engines.New(tc.alg, net, pairs, tc.cfg)
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
				t.Errorf("%s slot allocates %v times, want at most %v", tc.name, got, tc.max)
			}
		})
	}
}
