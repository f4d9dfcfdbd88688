package reps

import (
	"testing"

	"see/internal/graph"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// newEngine builds the engine the way engines.New does for REPS: the
// link-only row of the enumeration table in internal/engines (which
// imports this package), N_i from the network's memory.
func newEngine(net *topo.Network, pairs []topo.SDPair, opts Options) (*Engine, error) {
	set, err := segment.Build(net, pairs, segment.Options{KPaths: 5, MaxSegmentHops: 1, MaxCandidatesPerPair: 3})
	if err != nil {
		return nil, err
	}
	return New(nil, set, set.ConnCap(nil), opts)
}

func TestProvisionUsesOnlyLinks(t *testing.T) {
	net, pairs := topo.Motivation()
	e, err := newEngine(net, pairs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Plan) == 0 {
		t.Fatal("REPS provisioned nothing on the motivation fixture")
	}
	for _, en := range e.Plan {
		c := en.Cand
		if c.Hops() != 1 {
			t.Fatalf("REPS provisioned a multi-hop segment: %v", c.Path)
		}
	}
}

func TestProvisionRespectsCapacities(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.Nodes = 40
	cfg.Channels = 2
	cfg.Memory = 4
	net, err := topo.Generate(cfg, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 6, xrand.New(5))
	e, err := newEngine(net, pairs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	chanUse := make(map[int]int)
	memUse := make(map[int]int)
	for _, en := range e.Plan {
		c, n := en.Cand, en.N
		if n <= 0 {
			t.Fatal("non-positive attempt count in plan")
		}
		for _, eid := range c.EdgeIDs {
			chanUse[eid] += n
		}
		memUse[c.Path[0]] += n
		memUse[c.Path[1]] += n
	}
	for eid, u := range chanUse {
		if u > net.Channels[eid] {
			t.Fatalf("link %d overdrawn: %d > %d", eid, u, net.Channels[eid])
		}
	}
	for node, u := range memUse {
		if u > net.Memory[node] {
			t.Fatalf("node %d memory overdrawn: %d > %d", node, u, net.Memory[node])
		}
	}
}

func TestRunSlotDeterministicAndSane(t *testing.T) {
	net, pairs := topo.Motivation()
	e, err := newEngine(net, pairs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.RunSlot(xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	a = a.Clone() // the next slot reuses the result
	b, err := e.RunSlot(xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Established != b.Established || a.SegmentsCreated != b.SegmentsCreated {
		t.Fatal("REPS slot not deterministic")
	}
	if a.SegmentsCreated > a.Attempts {
		t.Fatal("created > attempts")
	}
	sum := 0
	for i, c := range a.PerPair {
		if c > e.ConnCap[i] {
			t.Fatalf("pair %d over cap", i)
		}
		sum += c
	}
	if sum != a.Established {
		t.Fatal("PerPair does not sum to Established")
	}
	for _, conn := range a.Connections {
		for _, s := range conn.Segments {
			if s.Cand.Hops() != 1 {
				t.Fatal("REPS connection uses a multi-hop segment")
			}
		}
	}
}

// On the motivation fixture the conventional (link-only) optimum is 0.729
// expected connections; REPS's mean throughput must be in that vicinity and
// strictly below the SEE ideal 1.489.
func TestMotivationThroughputBand(t *testing.T) {
	net, pairs := topo.Motivation()
	e, err := newEngine(net, pairs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(77)
	const slots = 4000
	total := 0
	for i := 0; i < slots; i++ {
		res, err := e.RunSlot(rng)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Established
	}
	mean := float64(total) / slots
	if mean < 0.45 || mean > 0.95 {
		t.Fatalf("REPS mean throughput %.3f outside [0.45, 0.95] (ideal 0.729)", mean)
	}
}

func TestPerfectNetworkSaturatesChannels(t *testing.T) {
	// Line with p = q = 1: REPS should establish exactly the channel
	// capacity for the single pair.
	net := perfectLine(4, 3, 10)
	pairs := []topo.SDPair{{S: 0, D: 3}}
	e, err := newEngine(net, pairs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunSlot(xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Established != 3 {
		t.Fatalf("established = %d, want 3", res.Established)
	}
}

// perfectLine builds a line network with p = q = 1.
func perfectLine(n, channels, memory int) *topo.Network {
	net := &topo.Network{
		G:        graph.New(n),
		Pos:      make([][2]float64, n),
		Memory:   make([]int, n),
		SwapProb: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		net.Pos[i] = [2]float64{float64(i) * 100, 0}
		net.Memory[i] = memory
		net.SwapProb[i] = 1
	}
	for i := 0; i+1 < n; i++ {
		net.G.AddEdge(i, i+1, 100)
		net.LinkLen = append(net.LinkLen, 100)
		net.Channels = append(net.Channels, channels)
	}
	net.SetProber(topo.ExpProber{Alpha: 0})
	return net
}
