package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestDijkstraLine(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	res := Dijkstra(g, 0, DijkstraOptions{})
	want := []float64{0, 1, 3, 6}
	for v, d := range want {
		if res.Dist[v] != d {
			t.Fatalf("dist[%d] = %v, want %v", v, res.Dist[v], d)
		}
	}
	if p := res.PathTo(3); !p.Equal(Path{0, 1, 2, 3}) {
		t.Fatalf("PathTo(3) = %v", p)
	}
	if ids := res.EdgesTo(3); len(ids) != 3 {
		t.Fatalf("EdgesTo(3) = %v, want 3 edges", ids)
	}
}

func TestDijkstraPrefersLighterPath(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 2, 10)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	p, d := ShortestPathTarget(g, 0, 2, DijkstraOptions{}, nil)
	if d != 2 || !p.Equal(Path{0, 1, 2}) {
		t.Fatalf("got path %v length %v, want 0-1-2 length 2", p, d)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	res := Dijkstra(g, 0, DijkstraOptions{})
	if res.Dist[2] != Unreachable {
		t.Fatal("node 2 must be unreachable")
	}
	if res.PathTo(2) != nil {
		t.Fatal("PathTo(unreachable) must be nil")
	}
	if p, d := ShortestPathTarget(g, 0, 2, DijkstraOptions{}, nil); p != nil || d != Unreachable {
		t.Fatal("ShortestPathTarget(unreachable) must be nil/Unreachable")
	}
}

func TestDijkstraNodeWeights(t *testing.T) {
	// 0-1-2 with heavy node 1 vs direct edge 0-2.
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 4)
	p, d := ShortestPathTarget(g, 0, 2, DijkstraOptions{NodeCost: []float64{0, 5, 0}}, nil)
	if !p.Equal(Path{0, 2}) || d != 4 {
		t.Fatalf("node cost ignored: path %v len %v", p, d)
	}
	// Endpoints never pay their own cost.
	_, d = ShortestPathTarget(g, 0, 2, DijkstraOptions{NodeCost: []float64{100, 0, 100}}, nil)
	if d != 2 {
		t.Fatalf("endpoint costs must not be charged: len %v, want 2", d)
	}
}

// TestDijkstraForbidden: a spur ban's root mark hides a node from the
// search.
func TestDijkstraForbidden(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 3, 5)
	ban := spurBan{root: make([]uint32, 4), epoch: 1}
	ban.root[1] = 1
	var sc DijkstraScratch
	if !sc.search(g, 0, 3, 0, DijkstraOptions{}, &ban) {
		t.Fatal("node 3 must stay reachable around the banned node")
	}
	if p, d := sc.appendPath(nil, 0, 3), sc.dist[3]; !p.Equal(Path{0, 2, 3}) || d != 6 {
		t.Fatalf("banned node traversed: %v len %v", p, d)
	}
}

// TestDijkstraForbiddenEdge: a spur ban's target hides every arc from the
// source to it, and an EdgeCost entry of +Inf hides its edge alone.
func TestDijkstraForbiddenEdge(t *testing.T) {
	g := New(3)
	fast := g.AddEdge(0, 2, 1)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 3)
	ban := spurBan{targets: []int{2}, root: make([]uint32, 3), epoch: 1}
	var sc DijkstraScratch
	if !sc.search(g, 0, 2, 0, DijkstraOptions{}, &ban) {
		t.Fatal("node 2 must stay reachable around the banned arcs")
	}
	if p, d := sc.appendPath(nil, 0, 2), sc.dist[2]; !p.Equal(Path{0, 1, 2}) || d != 2 {
		t.Fatalf("banned arc used: %v len %v", p, d)
	}
	cost := []float64{1, 1, 1, 1}
	cost[fast] = math.Inf(1)
	if p, es, d := ShortestPathEdgesTarget(g, 0, 2, DijkstraOptions{EdgeCost: cost}, nil); !p.Equal(Path{0, 2}) || es[0] != 3 || d != 1 {
		t.Fatalf("hidden edge: path %v edges %v len %v, want 0-2 over edge 3, len 1", p, es, d)
	}
}

func TestDijkstraBadSource(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	res := Dijkstra(g, -1, DijkstraOptions{})
	for v := range res.Dist {
		if res.Dist[v] != Unreachable {
			t.Fatalf("invalid source must reach nothing; dist[%d]=%v", v, res.Dist[v])
		}
	}
}

func TestPathLength(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	got := PathLength(g, Path{0, 1, 2}, DijkstraOptions{NodeCost: []float64{0, 1, 2}})
	if got != 2+1+3 {
		t.Fatalf("PathLength = %v, want 6", got)
	}
	if PathLength(g, Path{0, 2}, DijkstraOptions{}) != Unreachable {
		t.Fatal("non-adjacent hop must be Unreachable")
	}
	if PathLength(g, Path{}, DijkstraOptions{}) != Unreachable {
		t.Fatal("empty path must be Unreachable")
	}
	if PathLength(g, Path{1}, DijkstraOptions{}) != 0 {
		t.Fatal("single-node path must cost 0")
	}
}

func TestPathLengthPicksCheapestParallelArc(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 7)
	g.AddEdge(0, 1, 3)
	if got := PathLength(g, Path{0, 1}, DijkstraOptions{}); got != 3 {
		t.Fatalf("PathLength = %v, want 3 (cheapest parallel arc)", got)
	}
}

// Property: Dijkstra distances equal Bellman-Ford distances on random
// graphs, with and without node weights.
func TestDijkstraMatchesBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(3*n))
		var opts DijkstraOptions
		if trial%2 == 1 {
			opts.NodeCost = make([]float64, n)
			for i := range opts.NodeCost {
				opts.NodeCost[i] = rng.Float64() * 3
			}
		}
		src := rng.Intn(n)
		d1 := Dijkstra(g, src, opts).Dist
		d2, ok := BellmanFord(g, src, opts)
		if !ok {
			t.Fatal("unexpected negative cycle")
		}
		for v := range d1 {
			if math.Abs(d1[v]-d2[v]) > 1e-9 && !(d1[v] == Unreachable && d2[v] == Unreachable) {
				t.Fatalf("trial %d: dist[%d] dijkstra=%v bellman=%v", trial, v, d1[v], d2[v])
			}
		}
	}
}

// Property: the reconstructed path's recomputed length equals the reported
// distance.
func TestDijkstraPathLengthConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(2*n))
		src := rng.Intn(n)
		res := Dijkstra(g, src, DijkstraOptions{})
		for v := 0; v < n; v++ {
			p := res.PathTo(v)
			if p == nil {
				continue
			}
			if p[0] != src || p[len(p)-1] != v {
				t.Fatalf("path endpoints wrong: %v", p)
			}
			if got := PathLength(g, p, DijkstraOptions{}); math.Abs(got-res.Dist[v]) > 1e-9 {
				t.Fatalf("path length %v != dist %v", got, res.Dist[v])
			}
		}
	}
}

func TestDijkstraEdgeWeightOverride(t *testing.T) {
	g := New(3)
	fast := g.AddEdge(0, 2, 1)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	// Make the direct edge expensive through the cost table.
	cost := []float64{1, 1, 1}
	cost[fast] = 100
	opts := DijkstraOptions{EdgeCost: cost}
	p, d := ShortestPathTarget(g, 0, 2, opts, nil)
	if !p.Equal(Path{0, 1, 2}) || d != 2 {
		t.Fatalf("edge cost ignored: %v len %v", p, d)
	}
	if got := PathLength(g, Path{0, 2}, opts); got != 100 {
		t.Fatalf("PathLength under edge costs = %v, want 100", got)
	}
	d2, ok := BellmanFord(g, 0, opts)
	if !ok || d2[2] != 2 {
		t.Fatalf("BellmanFord under edge costs = %v, want 2", d2[2])
	}
}
