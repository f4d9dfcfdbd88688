package graph_test

import (
	"math/rand"
	"reflect"
	"testing"

	"see/internal/graph"
	"see/internal/topo"
	"see/internal/xrand"
)

// TestYenGoalDirectedMatchesReference pins YenKShortest under zero-value
// options, the only case whose spurs run goal-directed, to the
// clone-per-spur reference. The tie block (0/1 weights, parallel arcs, and
// one-way arcs on half the graphs, which take the reversed-arc distances)
// must fall back to the plain search at least once, or it no longer
// reaches the fallback; the Waxman block (real-valued link lengths, where
// exact ties do not occur) must never fall back, or goal direction has
// stopped paying on the paper's topologies.
func TestYenGoalDirectedMatchesReference(t *testing.T) {
	var settled, fallbacks int
	defer graph.CountYenSearches(&settled, &fallbacks)()
	check := func(name string, g *graph.Graph, s, d, k int) {
		t.Helper()
		want := graph.YenReference(g, s, d, k, graph.DijkstraOptions{})
		got := graph.YenKShortest(g, s, d, k, graph.DijkstraOptions{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Yen(%d→%d, k=%d) = %v, reference %v", name, s, d, k, got, want)
		}
	}

	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(29)
		g := graph.TieMultigraph(rng, n, trial%2 == 0)
		for q := 0; q < 8; q++ {
			check("tie trial", g, rng.Intn(n), rng.Intn(n), 2+rng.Intn(13))
		}
	}
	t.Logf("tie block: %d fallbacks", fallbacks)
	if fallbacks == 0 {
		t.Fatal("the tie block never fell back to the plain search")
	}

	fallbacks = 0
	pairs := 0
	for i, nodes := range []int{50, 100, 200, 400} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := topo.DefaultConfig()
			cfg.Nodes = nodes
			net, err := topo.Generate(cfg, xrand.New(seed+int64(10*i)))
			if err != nil {
				t.Fatal(err)
			}
			for _, sd := range topo.ChooseSDPairs(net, 10, xrand.New(seed+100)) {
				check("waxman", net.G, sd.S, sd.D, 5)
				pairs++
			}
		}
	}
	t.Logf("Waxman block: %d SD pairs, %d fallbacks", pairs, fallbacks)
	if fallbacks != 0 {
		t.Fatalf("the Waxman block fell back %d times, want 0", fallbacks)
	}
}
