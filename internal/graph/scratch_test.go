package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestShortestPathTargetMatchesFull: the early-stop targeted queries (and
// ShortestPath, which runs one) must return exactly the full Dijkstra's
// path, edges and distance, on random multigraphs, with and without node
// weights and re-weighted edges, reusing one scratch across queries.
func TestShortestPathTargetMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sc := &DijkstraScratch{}
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(40)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			g.AddEdge(u, v, 0.1+rng.Float64())
		}
		var opts DijkstraOptions
		if trial%2 == 1 {
			opts.NodeWeight = func(v int) float64 { return float64(v%3) * 0.01 }
		}
		if trial%3 == 2 {
			opts.EdgeWeight = func(id int, w float64) float64 { return w * float64(1+id%4) }
		}
		for q := 0; q < 10; q++ {
			s, d := rng.Intn(n), rng.Intn(n)
			full := Dijkstra(g, s, opts)
			wantPath, wantDist := full.PathTo(d), full.Dist[d]
			gotPath, gotDist := ShortestPathTarget(g, s, d, opts, sc)
			if gotDist != wantDist || !reflect.DeepEqual(gotPath, wantPath) {
				t.Fatalf("trial %d query %d→%d: target-stop (%v, %v) != full (%v, %v)",
					trial, s, d, gotPath, gotDist, wantPath, wantDist)
			}
			if p, dist := ShortestPath(g, s, d, opts); dist != wantDist || !reflect.DeepEqual(p, wantPath) {
				t.Fatalf("trial %d query %d→%d: ShortestPath (%v, %v) != full (%v, %v)",
					trial, s, d, p, dist, wantPath, wantDist)
			}
			wantEdges := full.EdgesTo(d)
			if p, es, dist := ShortestPathEdgesTarget(g, s, d, opts, sc); dist != wantDist ||
				!reflect.DeepEqual(p, wantPath) || !reflect.DeepEqual(es, wantEdges) {
				t.Fatalf("trial %d query %d→%d: ShortestPathEdgesTarget (%v, %v, %v) != full (%v, %v, %v)",
					trial, s, d, p, es, dist, wantPath, wantEdges, wantDist)
			}
		}
	}
}

func TestShortestPathTargetNilScratch(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	p, d := ShortestPathTarget(g, 0, 2, DijkstraOptions{}, nil)
	if d != 2 || !reflect.DeepEqual(p, Path{0, 1, 2}) {
		t.Fatalf("got (%v, %v)", p, d)
	}
	if p, d := ShortestPathTarget(g, 0, 0, DijkstraOptions{}, nil); d != 0 || !reflect.DeepEqual(p, Path{0}) {
		t.Fatalf("s==t: got (%v, %v)", p, d)
	}
	if p, es, d := ShortestPathEdgesTarget(g, 0, 2, DijkstraOptions{}, nil); d != 2 ||
		!reflect.DeepEqual(p, Path{0, 1, 2}) || !reflect.DeepEqual(es, []int{0, 1}) {
		t.Fatalf("edges: got (%v, %v, %v)", p, es, d)
	}
	if p, es, d := ShortestPathEdgesTarget(New(2), 0, 1, DijkstraOptions{}, nil); p != nil || es != nil || d != Unreachable {
		t.Fatalf("unreachable: got (%v, %v, %v)", p, es, d)
	}
}

func TestGraphReset(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.Reset()
	if g.N() != 4 || g.NumEdgeIDs() != 0 || g.Degree(1) != 0 {
		t.Fatalf("reset left n=%d edges=%d deg1=%d", g.N(), g.NumEdgeIDs(), g.Degree(1))
	}
	id := g.AddEdge(2, 3, 1)
	if id != 0 {
		t.Fatalf("edge IDs must restart at 0 after Reset, got %d", id)
	}
	if p, d := ShortestPathTarget(g, 2, 3, DijkstraOptions{}, nil); d != 1 || !reflect.DeepEqual(p, Path{2, 3}) {
		t.Fatalf("post-reset graph broken: (%v, %v)", p, d)
	}
}
