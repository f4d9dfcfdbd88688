package graph_test

import (
	"math/rand"
	"reflect"
	"testing"

	"see/internal/graph"
	"see/internal/topo"
	"see/internal/xrand"
)

// TestYenGoalDirectedMatchesReference pins YenKShortest with k > 1, whose
// searches all run goal-directed, to the clone-per-spur reference. The tie
// blocks (0/1 weights, parallel arcs, and one-way arcs on half the graphs,
// which take the reversed-arc distances; the second, half as long, with
// node costs of 0, ½ or 1 and a 0/1 edge cost table) must each fall back to the plain
// search at least once, or they no longer reach the fallback; the Waxman
// blocks (real-valued link lengths, and Contend's −ln q node costs and
// attempt-factor edge costs over SEE's segment graph, where exact ties do
// not occur) must never fall back, or goal direction has stopped paying
// on the paper's topologies.
func TestYenGoalDirectedMatchesReference(t *testing.T) {
	var c graph.YenCounts
	defer graph.CountYenSearches(&c)()
	check := func(name string, g *graph.Graph, s, d, k int, opts graph.DijkstraOptions) {
		t.Helper()
		want := graph.YenReference(g, s, d, k, opts)
		got := graph.YenKShortest(g, s, d, k, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Yen(%d→%d, k=%d) = %v, reference %v", name, s, d, k, got, want)
		}
	}

	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(29)
		g := graph.TieMultigraph(rng, n, trial%2 == 0)
		for q := 0; q < 8; q++ {
			check("tie trial", g, rng.Intn(n), rng.Intn(n), 2+rng.Intn(13), graph.DijkstraOptions{})
		}
	}
	t.Logf("tie block: %d fallbacks", c.Fallbacks)
	if c.Fallbacks == 0 {
		t.Fatal("the tie block never fell back to the plain search")
	}

	c.Fallbacks = 0
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(29)
		g := graph.TieMultigraph(rng, n, trial%2 == 0)
		opts := graph.DijkstraOptions{NodeCost: make([]float64, n), EdgeCost: make([]float64, g.NumEdgeIDs())}
		for v := range opts.NodeCost {
			opts.NodeCost[v] = float64(rng.Intn(3)) / 2
		}
		for id := range opts.EdgeCost {
			opts.EdgeCost[id] = float64(rng.Intn(2))
		}
		for q := 0; q < 8; q++ {
			check("tie trial with costs", g, rng.Intn(n), rng.Intn(n), 2+rng.Intn(13), opts)
		}
	}
	t.Logf("tie block with cost tables: %d fallbacks", c.Fallbacks)
	if c.Fallbacks == 0 {
		t.Fatal("the tie block with cost tables never fell back to the plain search")
	}

	c.Fallbacks = 0
	pairs := 0
	for i, nodes := range []int{50, 100, 200, 400} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := topo.DefaultConfig()
			cfg.Nodes = nodes
			net, err := topo.Generate(cfg, xrand.New(seed+int64(10*i)))
			if err != nil {
				t.Fatal(err)
			}
			sds := topo.ChooseSDPairs(net, 10, xrand.New(seed+100))
			for _, sd := range sds {
				check("waxman", net.G, sd.S, sd.D, 5, graph.DijkstraOptions{})
				pairs++
			}
			if nodes <= 200 {
				seg, opts := contendTables(t, net, sds)
				for _, sd := range sds {
					check("waxman, Contend's tables", seg, sd.S, sd.D, 5, opts)
					pairs++
				}
			}
		}
	}
	t.Logf("Waxman blocks: %d queries, %d fallbacks", pairs, c.Fallbacks)
	if c.Fallbacks != 0 {
		t.Fatalf("the Waxman blocks fell back %d times, want 0", c.Fallbacks)
	}
}
