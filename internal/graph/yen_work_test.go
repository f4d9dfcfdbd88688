package graph_test

import (
	"math"
	"testing"

	"see/internal/graph"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// yenWorkInstance is the benchmarks' ablation instance: the default
// 200-node topology at seed 1 and its 20 SD pairs.
func yenWorkInstance(t *testing.T) (*topo.Network, []topo.SDPair) {
	t.Helper()
	net, err := topo.Generate(topo.DefaultConfig(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return net, topo.ChooseSDPairs(net, 20, xrand.New(2))
}

// contendTables builds Contend's Yen instance over SEE's candidate set of
// net and pairs: the segment graph, −ln q per node (1e12 where q ≤ 0) and
// per segment edge the smallest attempt factor of its realizations (1e12
// where none is finite), as contend's candidatePaths builds them. The set
// is built on one worker, so a Yen counting hook may be installed.
func contendTables(t *testing.T, net *topo.Network, pairs []topo.SDPair) (*graph.Graph, graph.DijkstraOptions) {
	t.Helper()
	set, err := segment.Build(net, pairs, segment.Options{KPaths: 5, MaxSegmentHops: 10, MinProb: 0.05, MaxCandidatesPerPair: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := graph.DijkstraOptions{NodeCost: make([]float64, net.NumNodes()), EdgeCost: make([]float64, len(set.EdgePairs))}
	for u, q := range net.SwapProb {
		opts.NodeCost[u] = 1e12
		if q > 0 {
			opts.NodeCost[u] = -math.Log(q)
		}
	}
	for id, cands := range set.ByEdge {
		best := math.Inf(1)
		for _, c := range cands {
			best = min(best, segment.AttemptFactor(net, c))
		}
		if math.IsInf(best, 1) {
			best = 1e12
		}
		opts.EdgeCost[id] = best
	}
	return set.SegGraph, opts
}

// TestYenDoesLessWork pins the spur cuts of YenKShortest (Lawler's rule
// and the search bound), which leave the paths unchanged, so only a work
// count can notice one going missing. On the benchmarks' ablation instance
// (K = 5), with every search kept plain so that goal direction does not
// hide the cuts, it must return the reference Yen's paths settling under
// a quarter of the nodes the reference's searches settle (104,711). With
// both cuts it settles 23.1% of them; without Lawler's rule 32.2%, without
// the bound 30.1%, and with neither (targeted searches only) 40.9%.
func TestYenDoesLessWork(t *testing.T) {
	net, pairs := yenWorkInstance(t)
	var c graph.YenCounts
	var want int
	defer graph.CountYenSearches(&c)()
	defer graph.CountReferenceSettled(&want)()
	defer graph.PlainYen()()
	for _, sd := range pairs {
		paths := graph.YenKShortest(net.G, sd.S, sd.D, 5, graph.DijkstraOptions{})
		ref := graph.YenReference(net.G, sd.S, sd.D, 5, graph.DijkstraOptions{})
		if len(paths) != len(ref) {
			t.Fatalf("pair %+v: %d paths, reference %d", sd, len(paths), len(ref))
		}
		for i := range paths {
			if !paths[i].Equal(ref[i]) {
				t.Fatalf("pair %+v path %d: %v, reference %v", sd, i, paths[i], ref[i])
			}
		}
	}
	got := c.Settled()
	t.Logf("settled nodes: %d, reference %d", got, want)
	if 4*got >= want {
		t.Fatalf("YenKShortest settled %d nodes, not under a quarter of the reference's %d", got, want)
	}
}

// eceTables is ECE's log metric on the physical graph: −ln q per node and
// −ln p per link, p the link's one-hop creation probability. Node and
// link costs are of one size here, unlike Contend's, whose attempt factors
// dwarf −ln q.
func eceTables(net *topo.Network) graph.DijkstraOptions {
	opts := graph.DijkstraOptions{NodeCost: make([]float64, net.NumNodes()), EdgeCost: make([]float64, net.NumLinks())}
	for u, q := range net.SwapProb {
		opts.NodeCost[u] = -math.Log(q)
		for _, e := range net.G.Neighbors(u) {
			opts.EdgeCost[e.ID] = -math.Log(net.SegmentSuccessProb(graph.Path{u, e.To}))
		}
	}
	return opts
}

// TestYenGoalDirectedDoesLessWork: goal direction leaves the paths
// unchanged, so only a work count can notice it going missing. On the
// ablation instance it counts the nodes settled by each pass of every Yen
// call (the distances behind the goal keys, the first path's search and
// the spurs', plain reruns included) against the same calls with every
// search kept plain, for three cost models: the stored link lengths
// (every segment.Build row with K > 1), Contend's cost tables over SEE's
// segment graph, and ECE's log metric on the physical graph. Each must
// settle under half of its plain count. Per call (distances / first path /
// spurs), the link lengths settle 200 / 7.8 / 72.0 against 0 / 97.2 /
// 1,110 plain; before the first search was goal-directed they settled
// 200 / 97 / 72. Contend's tables settle 136 / 2.5 / 18.9 against 0 / 46.6
// / 303.4, and ECE's metric 200 / 7.2 / 63.5 against 0 / 98.2 / 1,082.9.
//
// Under ECE's metric the first path and the spurs must also settle under
// 120 nodes per call. That pins the node costs inside the goal keys:
// distances computed without them still bound the rest of a path from
// below, but so loosely that the two settle 214 per call.
func TestYenGoalDirectedDoesLessWork(t *testing.T) {
	net, pairs := yenWorkInstance(t)
	seg, contend := contendTables(t, net, pairs)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		opts graph.DijkstraOptions
	}{
		{"link lengths", net.G, graph.DijkstraOptions{}},
		{"Contend's tables", seg, contend},
		{"ECE's metric", net.G, eceTables(net)},
	} {
		var goal, plain graph.YenCounts
		for _, sd := range pairs {
			restore := graph.CountYenSearches(&goal)
			paths := graph.YenKShortest(tc.g, sd.S, sd.D, 5, tc.opts)
			restore()
			restore = graph.CountYenSearches(&plain)
			restorePlain := graph.PlainYen()
			ref := graph.YenKShortest(tc.g, sd.S, sd.D, 5, tc.opts)
			restorePlain()
			restore()
			if len(paths) != len(ref) {
				t.Fatalf("%s, pair %+v: %d paths, plain %d", tc.name, sd, len(paths), len(ref))
			}
			for i := range paths {
				if !paths[i].Equal(ref[i]) {
					t.Fatalf("%s, pair %+v path %d: %v, plain %v", tc.name, sd, i, paths[i], ref[i])
				}
			}
		}
		n := float64(len(pairs))
		t.Logf("%s: settled per call, distances / first path / spurs: goal-directed %.1f / %.1f / %.1f (%d fallbacks), plain %.1f / %.1f / %.1f",
			tc.name, float64(goal.Distances)/n, float64(goal.First)/n, float64(goal.Spurs)/n, goal.Fallbacks,
			float64(plain.Distances)/n, float64(plain.First)/n, float64(plain.Spurs)/n)
		if 2*goal.Settled() >= plain.Settled() {
			t.Fatalf("%s: goal-directed Yen settled %d nodes, not under half of the plain searches' %d", tc.name, goal.Settled(), plain.Settled())
		}
		if tc.name == "ECE's metric" && float64(goal.First+goal.Spurs)/n >= 120 {
			t.Fatalf("%s: the first paths and spurs settled %.1f nodes per call, want under 120", tc.name, float64(goal.First+goal.Spurs)/n)
		}
	}
}
