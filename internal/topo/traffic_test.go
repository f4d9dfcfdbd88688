package topo

import (
	"testing"

	"see/internal/xrand"
)

func trafficNet(t *testing.T) *Network {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = 60
	net, err := Generate(cfg, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func assertDistinctPairs(t *testing.T, pairs []SDPair, want int) {
	t.Helper()
	if len(pairs) != want {
		t.Fatalf("got %d pairs, want %d", len(pairs), want)
	}
	seen := map[[2]int]struct{}{}
	for _, p := range pairs {
		if p.S == p.D {
			t.Fatal("degenerate pair")
		}
		key := [2]int{min(p.S, p.D), max(p.S, p.D)}
		if _, dup := seen[key]; dup {
			t.Fatal("duplicate pair")
		}
		seen[key] = struct{}{}
	}
}

func TestTrafficUniformDelegates(t *testing.T) {
	net := trafficNet(t)
	pairs := ChooseSDPairsWithTraffic(net, 10, TrafficConfig{}, xrand.New(1))
	assertDistinctPairs(t, pairs, 10)
}

func TestTrafficHotspot(t *testing.T) {
	net := trafficNet(t)
	cfg := TrafficConfig{Pattern: TrafficHotspot, HotspotFraction: 0.5, Hub: -1}
	pairs := ChooseSDPairsWithTraffic(net, 12, cfg, xrand.New(2))
	assertDistinctPairs(t, pairs, 12)
	// Find the auto-selected hub (highest degree) and count its pairs.
	hub := 0
	for u := 1; u < net.NumNodes(); u++ {
		if net.G.Degree(u) > net.G.Degree(hub) {
			hub = u
		}
	}
	hubCount := 0
	for _, p := range pairs {
		if p.S == hub || p.D == hub {
			hubCount++
		}
	}
	if hubCount < 6 {
		t.Fatalf("hub anchors only %d of 12 pairs, want >= 6", hubCount)
	}
	// Explicit hub respected.
	cfg.Hub = 3
	pairs = ChooseSDPairsWithTraffic(net, 8, cfg, xrand.New(3))
	anchored := 0
	for _, p := range pairs {
		if p.S == 3 || p.D == 3 {
			anchored++
		}
	}
	if anchored < 4 {
		t.Fatalf("explicit hub anchors %d of 8", anchored)
	}
}

func TestTrafficHotspotBudgetCap(t *testing.T) {
	// Tiny network: hub budget must cap at n-1 distinct hub pairs.
	net, _ := Motivation()
	cfg := TrafficConfig{Pattern: TrafficHotspot, HotspotFraction: 1.0, Hub: topo_MotivR1}
	pairs := ChooseSDPairsWithTraffic(net, 10, cfg, xrand.New(4))
	assertDistinctPairs(t, pairs, 10) // 6 nodes -> 15 possible pairs
}

// alias to keep the test readable without an import cycle.
const topo_MotivR1 = MotivR1

func TestTrafficGravityPrefersClosePairs(t *testing.T) {
	net := trafficNet(t)
	rng := xrand.New(5)
	gravity := ChooseSDPairsWithTraffic(net, 15,
		TrafficConfig{Pattern: TrafficGravity, GravityScaleKM: 800}, rng)
	assertDistinctPairs(t, gravity, 15)
	uniform := ChooseSDPairs(net, 15, xrand.New(6))
	mean := func(pairs []SDPair) float64 {
		var s float64
		for _, p := range pairs {
			s += dist(net.Pos[p.S], net.Pos[p.D])
		}
		return s / float64(len(pairs))
	}
	if mean(gravity) >= mean(uniform) {
		t.Fatalf("gravity mean distance %.0f not below uniform %.0f",
			mean(gravity), mean(uniform))
	}
}

func TestTrafficPatternString(t *testing.T) {
	if TrafficUniform.String() != "uniform" || TrafficHotspot.String() != "hotspot" ||
		TrafficGravity.String() != "gravity" || TrafficPattern(9).String() == "" {
		t.Fatal("pattern names wrong")
	}
}

func TestTrafficDegenerate(t *testing.T) {
	tiny := &Network{G: newGraph(1), Pos: make([][2]float64, 1),
		Memory: []int{1}, SwapProb: []float64{1}}
	if got := chooseHotspot(tiny, 5, TrafficConfig{}, xrand.New(1)); got != nil {
		t.Fatal("1-node hotspot must be nil")
	}
	if got := chooseGravity(tiny, 5, TrafficConfig{}, xrand.New(1)); got != nil {
		t.Fatal("1-node gravity must be nil")
	}
}

// A count ≤ 0 draws no pairs under every pattern instead of sizing a
// buffer by it (a negative capacity would panic).
func TestTrafficNonPositiveCount(t *testing.T) {
	net, err := Generate(Config{Nodes: 20, AreaKM: 1000, WaxmanBeta: 0.9, WaxmanGamma: 0.2,
		Channels: 1, Memory: 1, SwapProb: 0.9, Alpha: 1e-4}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []TrafficPattern{TrafficUniform, TrafficHotspot, TrafficGravity} {
		for _, count := range []int{0, -1, -20} {
			if got := ChooseSDPairsWithTraffic(net, count, TrafficConfig{Pattern: pattern, Hub: -1}, xrand.New(1)); len(got) != 0 {
				t.Errorf("%v count %d drew %d pairs", pattern, count, len(got))
			}
		}
	}
}
