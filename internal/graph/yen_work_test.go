package graph_test

import (
	"testing"

	"see/internal/graph"
	"see/internal/topo"
	"see/internal/xrand"
)

// TestYenDoesLessWork pins the spur cuts of YenKShortest (Lawler's rule
// and the search bound), which leave the paths unchanged, so only a work
// count can notice one going missing. On the benchmarks' ablation instance
// (the default 200-node topology, 20 SD pairs, K = 5) it must return the
// reference Yen's paths with under a third of the reference's EdgeWeight
// hook calls. With both cuts it makes 28% of them; without Lawler's rule
// 39%, without the bound 37%, and with neither (targeted searches only)
// 50%.
func TestYenDoesLessWork(t *testing.T) {
	net, err := topo.Generate(topo.DefaultConfig(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	opts := graph.DijkstraOptions{EdgeWeight: func(_ int, w float64) float64 {
		calls++
		return w
	}}
	var got, want int
	for _, sd := range topo.ChooseSDPairs(net, 20, xrand.New(2)) {
		calls = 0
		paths := graph.YenKShortest(net.G, sd.S, sd.D, 5, opts)
		got += calls
		calls = 0
		ref := graph.YenReference(net.G, sd.S, sd.D, 5, opts)
		want += calls
		if len(paths) != len(ref) {
			t.Fatalf("pair %+v: %d paths, reference %d", sd, len(paths), len(ref))
		}
		for i := range paths {
			if !paths[i].Equal(ref[i]) {
				t.Fatalf("pair %+v path %d: %v, reference %v", sd, i, paths[i], ref[i])
			}
		}
	}
	t.Logf("EdgeWeight calls: %d, reference %d", got, want)
	if 3*got >= want {
		t.Fatalf("YenKShortest made %d EdgeWeight calls, not under a third of the reference's %d", got, want)
	}
}

// TestYenGoalDirectedDoesLessWork is TestYenDoesLessWork's plain-weights
// twin. Zero-value options make the spur searches goal-directed, which
// leaves the paths unchanged, so only a work count can notice goal
// direction going missing: on the same instance it counts the nodes
// settled by every search of each Yen call (the first path's, the
// distances to t and every spur's, fallbacks included) against the same
// calls with a do-nothing Forbidden hook, which keeps every search plain,
// and requires under half of it. Goal-directed calls settle 7,382 nodes,
// plain ones 24,143; spurs alone 1,439 against 22,200.
func TestYenGoalDirectedDoesLessWork(t *testing.T) {
	net, err := topo.Generate(topo.DefaultConfig(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var settled, fallbacks int
	defer graph.CountYenSearches(&settled, &fallbacks)()
	plain := graph.DijkstraOptions{Forbidden: func(int) bool { return false }}
	var got, want int
	for _, sd := range topo.ChooseSDPairs(net, 20, xrand.New(2)) {
		settled = 0
		paths := graph.YenKShortest(net.G, sd.S, sd.D, 5, graph.DijkstraOptions{})
		got += settled
		settled = 0
		ref := graph.YenKShortest(net.G, sd.S, sd.D, 5, plain)
		want += settled
		if len(paths) != len(ref) {
			t.Fatalf("pair %+v: %d paths, plain %d", sd, len(paths), len(ref))
		}
		for i := range paths {
			if !paths[i].Equal(ref[i]) {
				t.Fatalf("pair %+v path %d: %v, plain %v", sd, i, paths[i], ref[i])
			}
		}
	}
	t.Logf("settled nodes: %d goal-directed, %d plain; %d fallbacks", got, want, fallbacks)
	if 2*got >= want {
		t.Fatalf("goal-directed Yen settled %d nodes, not under half of the plain searches' %d", got, want)
	}
}
