package schedtest

import (
	"testing"

	"see/internal/engines"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/topo"
	"see/internal/xrand"
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
// result afresh. The -middle cases run SEE and E2E on a network with 2
// channels per link and 6 memory units per node and twice the pairs,
// where SEE's ESC rolls paths back (the test checks that some warm-up
// slot provisions fewer paths than it planned), so ESC's per-edge
// cursors, listed edges and backup keys must be reused across rollbacks
// too.
func TestSlotAllocs(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := topo.DefaultConfig()
	cfg.Nodes, cfg.Channels, cfg.Memory = testNodes, 2, 6
	midNet, err := topo.Generate(cfg, xrand.New(testSeed))
	if err != nil {
		t.Fatal(err)
	}
	midPairs := topo.ChooseSDPairs(midNet, 2*testPairs, xrand.New(testSeed+1))
	for _, tc := range []struct {
		name   string
		alg    sched.Algorithm
		cfg    engines.Config
		max    float64
		middle bool
	}{
		{"Greedy", sched.Greedy, engines.Config{}, 0, false},
		{"Contend", sched.Contend, engines.Config{}, 0, false},
		{"SEE", sched.SEE, engines.Config{}, 0, false},
		{"REPS", sched.REPS, engines.Config{}, 0, false},
		{"E2E", sched.E2E, engines.Config{}, 0, false},
		{"SEE-greedy-swap", sched.SEE, engines.Config{SwapOrder: qnet.SwapOrderGreedy}, 0, false},
		{"SEE-banked", sched.SEE, engines.Config{CarryOver: true, DecoherenceSlots: 2,
			CarryWernerRetention: 0.9, CarryMinWernerScale: 0.5}, 0, false},
		{"SEE-floored", sched.SEE, engines.Config{FidelityFloors: &qnet.FloorSpec{Default: 0.8}}, 0, false},
		{"REPS-floored", sched.REPS, engines.Config{FidelityFloors: &qnet.FloorSpec{Default: 0.8}}, 0, false},
		{"SEE-middle", sched.SEE, engines.Config{}, 0, true},
		{"E2E-middle", sched.E2E, engines.Config{}, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, p := net, pairs
			if tc.middle {
				n, p = midNet, midPairs
			}
			eng, err := engines.New(tc.alg, n, p, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := NewRng(testSeed)
			rolledBack := false
			slot := func() {
				res, err := eng.RunSlot(rng)
				if err != nil {
					t.Fatal(err)
				}
				rolledBack = rolledBack || res.ProvisionedPaths < res.PlannedPaths
			}
			// Grow every reused buffer to the instance first.
			for range 50 {
				slot()
			}
			if tc.middle && tc.alg == sched.SEE && !rolledBack {
				t.Fatalf("%s: no slot rolled a planned path back", tc.name)
			}
			if got := testing.AllocsPerRun(200, slot); got > tc.max {
				t.Errorf("%s slot allocates %v times, want at most %v", tc.name, got, tc.max)
			}
		})
	}
}
