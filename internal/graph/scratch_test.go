package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestShortestPathTargetMatchesFull: the early-stop targeted queries must
// return exactly the full Dijkstra's path, edges and distance, on random
// multigraphs, with and without node costs and edge cost tables, reusing
// one scratch across queries (and on a fresh one).
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
			opts.NodeCost = make([]float64, n)
			for v := range opts.NodeCost {
				opts.NodeCost[v] = float64(v%3) * 0.01
			}
		}
		if trial%3 == 2 {
			opts.EdgeCost = make([]float64, g.NumEdgeIDs())
			for _, es := range g.adj {
				for _, e := range es {
					opts.EdgeCost[e.ID] = e.Weight * float64(1+e.ID%4)
				}
			}
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
			if p, dist := ShortestPathTarget(g, s, d, opts, nil); dist != wantDist || !reflect.DeepEqual(p, wantPath) {
				t.Fatalf("trial %d query %d→%d: fresh scratch (%v, %v) != full (%v, %v)",
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

// randomTiedGraph is a random multigraph whose edge weights come from a
// small set, so many paths tie, with a node cost on every third node.
func randomTiedGraph(rng *rand.Rand, n int) (*Graph, DijkstraOptions) {
	g := New(n)
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		g.AddEdge(u, v, float64(1+rng.Intn(3)))
	}
	nc := make([]float64, n)
	for v := range nc {
		if v%3 == 0 {
			nc[v] = float64(rng.Intn(2))
		}
	}
	return g, DijkstraOptions{NodeCost: nc}
}

// checkBounded asserts that a search bounded at bound (the bound Yen's
// spurs pass) on sc settles d with the unbounded search's path, distance
// and path edges when that distance is below bound, and leaves d
// unsettled otherwise.
func checkBounded(t *testing.T, g *Graph, s, d int, bound float64, opts DijkstraOptions, sc *DijkstraScratch) {
	t.Helper()
	wantPath, wantEdges, wantDist := ShortestPathEdgesTarget(g, s, d, opts, nil)
	var gotPath Path
	gotDist := Unreachable
	if sc.search(g, s, d, bound, opts, nil) {
		gotPath, gotDist = sc.appendPath(nil, s, d), sc.dist[d]
	}
	if bound > 0 && wantDist >= bound {
		wantPath, wantEdges, wantDist = nil, nil, Unreachable
	}
	if gotDist != wantDist || !reflect.DeepEqual(gotPath, wantPath) {
		t.Fatalf("%d→%d bound %v: got (%v, %v), want (%v, %v)", s, d, bound, gotPath, gotDist, wantPath, wantDist)
	}
	var gotEdges []int
	for i := 1; i < len(gotPath); i++ {
		gotEdges = append(gotEdges, sc.prevEdge[gotPath[i]])
	}
	if !reflect.DeepEqual(gotEdges, wantEdges) {
		t.Fatalf("%d→%d bound %v: edges %v, want %v", s, d, bound, gotEdges, wantEdges)
	}
}

// TestShortestPathBoundMatchesUnbounded: a bounded search (search, as
// Yen's spurs run it) returns the unbounded path and distance whenever
// that distance is below the bound, and unreachable otherwise, on random
// graphs with node costs and tied edge weights, with bounds at, just
// above and just below the distance.
func TestShortestPathBoundMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := &DijkstraScratch{}
	for trial := 0; trial < 200; trial++ {
		g, opts := randomTiedGraph(rng, 2+rng.Intn(30))
		for q := 0; q < 10; q++ {
			s, d := rng.Intn(g.N()), rng.Intn(g.N())
			_, dist := ShortestPathTarget(g, s, d, opts, nil)
			bounds := []float64{0, -1, 0.5, 1 + 10*rng.Float64(), Unreachable}
			if dist != Unreachable {
				bounds = append(bounds, dist, math.Nextafter(dist, math.Inf(1)), math.Nextafter(dist, 0), dist/2)
			}
			for _, b := range bounds {
				checkBounded(t, g, s, d, b, opts, sc)
			}
		}
	}
}

// TestScratchInterleavedSearches: one scratch serves bounded searches,
// Yen spur searches and full searches interleaved on graphs of different
// sizes, and after every search holds exactly what a fresh scratch holds
// after the same search: the lazy reset leaves nothing behind.
func TestScratchInterleavedSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shared := &DijkstraScratch{}
	graphs := make([]*Graph, 4)
	optss := make([]DijkstraOptions, 4)
	for i := range graphs {
		graphs[i], optss[i] = randomTiedGraph(rng, 3+i*9)
	}
	for q := 0; q < 2000; q++ {
		k := rng.Intn(len(graphs))
		g, opts := graphs[k], optss[k]
		n := g.N()
		s, d := rng.Intn(n), rng.Intn(n)
		bound := 0.0
		var ban *spurBan
		switch rng.Intn(4) {
		case 0:
			bound = 1 + 8*rng.Float64()
		case 1:
			// A Yen spur from s: bans on two arcs out of s and a root
			// path of two other nodes.
			ban = &spurBan{targets: []int{rng.Intn(n), rng.Intn(n)}, root: make([]uint32, n), epoch: 1}
			ban.root[rng.Intn(n)] = 1
			ban.root[rng.Intn(n)] = 1
			ban.root[s] = 0
		case 2:
			d = -1
		}
		fresh := &DijkstraScratch{}
		want := fresh.search(g, s, d, bound, opts, ban)
		got := shared.search(g, s, d, bound, opts, ban)
		if got != want || !reflect.DeepEqual(shared.dist, fresh.dist) || !reflect.DeepEqual(shared.prev, fresh.prev) ||
			!reflect.DeepEqual(shared.prevEdge, fresh.prevEdge) || !reflect.DeepEqual(shared.done, fresh.done) {
			t.Fatalf("query %d (graph %d, %d→%d, bound %v, spur %v): shared scratch differs from a fresh one", q, k, s, d, bound, ban != nil)
		}
		if q%50 == 0 {
			if got, want := YenKShortest(g, s, max(d, 0), 3, opts), yenReference(g, s, max(d, 0), 3, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d: Yen %v, reference %v", q, got, want)
			}
		}
	}
}

// FuzzShortestPathBound: on a graph decoded from the input (tied edge
// weights from one byte each, node costs from the last bytes), a
// bounded search (search, as Yen's spurs run it) agrees with the unbounded one as checkBounded requires,
// on a scratch reused across the input's queries.
func FuzzShortestPathBound(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 1, 2, 1, 2, 3, 2, 0, 3, 9}, 2.5)
	f.Add([]byte{3, 0, 1, 0, 1, 2, 0, 0, 2, 1}, 1.0)
	f.Add([]byte{8, 0, 7, 200, 7, 3, 4, 3, 1, 1, 1, 6, 2, 0, 0}, 1e8)
	f.Fuzz(func(t *testing.T, data []byte, bound float64) {
		if len(data) < 4 || math.IsNaN(bound) {
			return
		}
		n := 2 + int(data[0])%24
		g := New(n)
		body := data[1:]
		for len(body) >= 3 {
			u, v := int(body[0])%n, int(body[1])%n
			if u != v {
				g.AddEdge(u, v, float64(body[2]%4))
			}
			body = body[3:]
		}
		opts := DijkstraOptions{NodeCost: make([]float64, n)}
		for v := range min(n, len(body)) {
			opts.NodeCost[v] = float64(body[v] % 3)
		}
		sc := &DijkstraScratch{}
		for s := 0; s < n; s += 3 {
			for d := 0; d < n; d += 2 {
				checkBounded(t, g, s, d, bound, opts, sc)
			}
		}
	})
}
