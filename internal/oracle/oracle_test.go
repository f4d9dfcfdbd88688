package oracle_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"see/internal/oracle"
	"see/internal/topo"
)

// load parses a hand-written edge list with deterministic link
// probabilities (Delta 0, so success probability is exactly e^{-αl}) and
// the given memory for nodes that declare none.
func load(t *testing.T, text string, memory int) *topo.Network {
	t.Helper()
	cfg := topo.DefaultConfig()
	cfg.Delta = 0
	cfg.Memory = memory
	net, err := topo.LoadEdgeList(strings.NewReader(text), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestBoundsLine(t *testing.T) {
	// One link, 3 channels, ample memory: the channel count is the cut.
	net := load(t, `
node 0 0 0
node 1 100 0
link 0 1 100 3
`, 5)
	pairs := []topo.SDPair{{S: 0, D: 1}}
	bounds := oracle.ComputeBounds(net, pairs)
	if bounds[0].Hard != 3 {
		t.Fatalf("Hard = %d, want 3 (channel min-cut)", bounds[0].Hard)
	}
	want := 3 * math.Exp(-0.0002*100)
	if math.Abs(bounds[0].Expected-want) > 1e-5 {
		t.Fatalf("Expected = %v, want %v (3·e^{-αl})", bounds[0].Expected, want)
	}
	if bounds[0].Expected > float64(bounds[0].Hard) {
		t.Fatalf("Expected %v above Hard %d", bounds[0].Expected, bounds[0].Hard)
	}
}

func TestBoundsMemoryClamp(t *testing.T) {
	// Same line, but the source holds only 2 qubits: memory, not the
	// channel cut, is the binding constraint.
	net := load(t, `
node 0 0 0 2
node 1 100 0 5
link 0 1 100 3
`, 5)
	bounds := oracle.ComputeBounds(net, []topo.SDPair{{S: 0, D: 1}})
	if bounds[0].Hard != 2 {
		t.Fatalf("Hard = %d, want 2 (endpoint memory clamp)", bounds[0].Hard)
	}
	if bounds[0].Expected > 2 {
		t.Fatalf("Expected %v above memory-clamped Hard 2", bounds[0].Expected)
	}
}

func TestBoundsDiamond(t *testing.T) {
	// Two disjoint 2-hop routes of 2 channels each: min-cut 4, and the
	// relay nodes' memories do not clamp it (only endpoints pin qubits for
	// the whole slot).
	net := load(t, `
node 0 0 0 8
node 1 100 100 2
node 2 100 -100 2
node 3 200 0 8
link 0 1 100 2
link 0 2 100 2
link 1 3 100 2
link 2 3 100 2
`, topo.DefaultConfig().Memory)
	bounds := oracle.ComputeBounds(net, []topo.SDPair{{S: 0, D: 3}})
	if bounds[0].Hard != 4 {
		t.Fatalf("Hard = %d, want 4 (two disjoint 2-channel routes)", bounds[0].Hard)
	}
	if bounds[0].Expected <= 0 || bounds[0].Expected > 4 {
		t.Fatalf("Expected = %v, want (0, 4]", bounds[0].Expected)
	}
}

func TestBoundsDisconnected(t *testing.T) {
	// Two separate components: the cross-component pair has zero capacity.
	net := load(t, `
node 0 0 0
node 1 100 0
node 2 500 0
node 3 600 0
link 0 1 100 3
link 2 3 100 3
`, 5)
	bounds := oracle.ComputeBounds(net, []topo.SDPair{{S: 0, D: 3}, {S: 2, D: 3}})
	if bounds[0].Hard != 0 || bounds[0].Expected != 0 {
		t.Fatalf("disconnected pair bound = %+v, want zero", bounds[0])
	}
	if bounds[1].Hard != 3 {
		t.Fatalf("intra-component pair Hard = %d, want 3", bounds[1].Hard)
	}
}

func TestNewEngineErrors(t *testing.T) {
	if _, err := oracle.NewEngine(nil, nil, nil); err == nil {
		t.Error("nil network accepted")
	}
	net := load(t, "node 0 0 0\nnode 1 100 0\nlink 0 1 100 1\n", topo.DefaultConfig().Memory)
	if _, err := oracle.NewEngine(net, []topo.SDPair{{S: 0, D: 9}}, nil); err == nil {
		t.Error("out-of-range pair accepted")
	}
	if _, err := oracle.NewEngine(net, []topo.SDPair{{S: -1, D: 1}}, nil); err == nil {
		t.Error("negative pair accepted")
	}
}

func TestEngineSlotContract(t *testing.T) {
	net := load(t, `
node 0 0 0
node 1 100 0
node 2 200 0
link 0 1 100 2
link 1 2 100 2
`, 4)
	pairs := []topo.SDPair{{S: 0, D: 2}, {S: 0, D: 1}}
	eng, err := oracle.NewEngine(net, pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	bounds := oracle.ComputeBounds(net, pairs)
	if len(bounds) != len(pairs) {
		t.Fatalf("ComputeBounds has %d entries for %d pairs", len(bounds), len(pairs))
	}
	sum := 0.0
	for i, b := range bounds {
		if b.Pair != pairs[i] {
			t.Errorf("bound %d is for pair %+v, want %+v (demand order)", i, b.Pair, pairs[i])
		}
		sum += b.Expected
	}
	if math.Abs(eng.UpperBound()-sum) > 1e-12 {
		t.Errorf("UpperBound %v != summed Expected %v", eng.UpperBound(), sum)
	}

	// RunSlot delivers nothing, reports the bound as the LP objective, and
	// leaves the rng exactly where it was — a twin rng must stay in
	// lockstep after the slot.
	rng := rand.New(rand.NewSource(7))
	twin := rand.New(rand.NewSource(7))
	res, err := eng.RunSlot(rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Established != 0 || res.Attempts != 0 || len(res.Connections) != 0 {
		t.Errorf("oracle slot delivered something: %+v", res)
	}
	if len(res.PerPair) != len(pairs) {
		t.Errorf("PerPair has %d entries for %d pairs", len(res.PerPair), len(pairs))
	}
	if math.Abs(res.LPObjective-eng.UpperBound()) > 1e-12 {
		t.Errorf("LPObjective %v != UpperBound %v", res.LPObjective, eng.UpperBound())
	}
	if rng.Int63() != twin.Int63() {
		t.Error("RunSlot consumed randomness")
	}
}
