package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestYenSimpleDiamond(t *testing.T) {
	// 0-1-3 (len 2), 0-2-3 (len 3), 0-3 (len 4)
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 3, 2)
	g.AddEdge(0, 3, 4)
	paths := YenKShortest(g, 0, 3, 3, DijkstraOptions{})
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	if !paths[0].Equal(Path{0, 1, 3}) {
		t.Fatalf("path[0] = %v", paths[0])
	}
	if !paths[1].Equal(Path{0, 2, 3}) {
		t.Fatalf("path[1] = %v", paths[1])
	}
	if !paths[2].Equal(Path{0, 3}) {
		t.Fatalf("path[2] = %v", paths[2])
	}
}

func TestYenFewerPathsThanK(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	paths := YenKShortest(g, 0, 2, 5, DijkstraOptions{})
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1 (line graph)", len(paths))
	}
}

func TestYenNoPath(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	if paths := YenKShortest(g, 0, 2, 3, DijkstraOptions{}); paths != nil {
		t.Fatalf("got %v, want nil for disconnected target", paths)
	}
}

func TestYenSourceEqualsTarget(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	paths := YenKShortest(g, 0, 0, 3, DijkstraOptions{})
	if len(paths) != 1 || !paths[0].Equal(Path{0}) {
		t.Fatalf("got %v, want single trivial path", paths)
	}
}

func TestYenInvalidArgs(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	if YenKShortest(g, 0, 1, 0, DijkstraOptions{}) != nil {
		t.Fatal("k=0 must return nil")
	}
	if YenKShortest(g, -1, 1, 2, DijkstraOptions{}) != nil {
		t.Fatal("bad source must return nil")
	}
	if YenKShortest(g, 0, 9, 2, DijkstraOptions{}) != nil {
		t.Fatal("bad target must return nil")
	}
}

func TestYenRespectsNodeWeights(t *testing.T) {
	// Through node 1 is shorter in edges but node 1 is expensive.
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 2)
	g.AddEdge(2, 3, 2)
	paths := YenKShortest(g, 0, 3, 2, DijkstraOptions{NodeCost: []float64{0, 10, 0, 0}})
	if len(paths) != 2 {
		t.Fatalf("got %d paths", len(paths))
	}
	if !paths[0].Equal(Path{0, 2, 3}) {
		t.Fatalf("first path should avoid heavy node: %v", paths[0])
	}
}

// Properties on random graphs: paths are loopless, distinct, sorted by
// length, start/end correctly, and the first path is the Dijkstra shortest.
func TestYenProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(16)
		g := randomGraph(rng, n, rng.Intn(2*n))
		s, d := rng.Intn(n), rng.Intn(n)
		if s == d {
			continue
		}
		k := 1 + rng.Intn(6)
		paths := YenKShortest(g, s, d, k, DijkstraOptions{})
		if len(paths) == 0 {
			t.Fatalf("random tree-based graph must connect %d-%d", s, d)
		}
		if len(paths) > k {
			t.Fatalf("returned %d > k=%d paths", len(paths), k)
		}
		_, want := ShortestPathTarget(g, s, d, DijkstraOptions{}, nil)
		if got := PathLength(g, paths[0], DijkstraOptions{}); got > want+1e-9 {
			t.Fatalf("first Yen path length %v > Dijkstra %v", got, want)
		}
		seen := map[string]struct{}{}
		prevLen := -1.0
		for _, p := range paths {
			if p[0] != s || p[len(p)-1] != d {
				t.Fatalf("bad endpoints: %v", p)
			}
			if !p.Loopless() {
				t.Fatalf("loopy path: %v", p)
			}
			key := pathKey(p)
			if _, dup := seen[key]; dup {
				t.Fatalf("duplicate path: %v", p)
			}
			seen[key] = struct{}{}
			l := PathLength(g, p, DijkstraOptions{})
			if l < prevLen-1e-9 {
				t.Fatalf("paths not sorted by length: %v after %v", l, prevLen)
			}
			prevLen = l
		}
	}
}

func TestYenFindsAllSimplePathsInSmallGraph(t *testing.T) {
	// Complete graph K4 with unit weights has 5 simple paths 0→3:
	// direct, two 2-hop, two 3-hop.
	g := New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.AddEdge(u, v, 1)
		}
	}
	paths := YenKShortest(g, 0, 3, 10, DijkstraOptions{})
	if len(paths) != 5 {
		t.Fatalf("got %d paths, want 5: %v", len(paths), paths)
	}
}

// TestYenMatchesReference: the in-place spur kernel returns exactly the
// paths of the clone-per-spur Yen over the boxed-heap Dijkstra, on random
// multigraphs with parallel arcs, one-way arcs, zero-weight arcs, node
// costs, edge cost tables and edges hidden by a cost of +Inf.
func TestYenMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(24)
		g := randomMultigraph(rng, n)
		opts := randomOptions(rng, g)
		for q := 0; q < 6; q++ {
			s, d := rng.Intn(n), rng.Intn(n)
			k := 1 + rng.Intn(9)
			want := yenReference(g, s, d, k, opts)
			got := YenKShortest(g, s, d, k, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Yen(%d→%d, k=%d) = %v, reference %v", trial, s, d, k, got, want)
			}
		}
	}
	// Tie-heavy block for Lawler's rule and the spur bound: weights 0 and
	// 1 only, denser graphs and larger k, so many candidates tie with the
	// need-th length and many spurs share their root with an earlier one.
	for trial := 0; trial < 250; trial++ {
		n := 2 + rng.Intn(29)
		g := tieMultigraph(rng, n, true)
		var opts DijkstraOptions
		if rng.Intn(2) == 0 {
			opts = randomOptions(rng, g)
		}
		for q := 0; q < 8; q++ {
			s, d := rng.Intn(n), rng.Intn(n)
			k := 1 + rng.Intn(14)
			want := yenReference(g, s, d, k, opts)
			got := YenKShortest(g, s, d, k, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tie trial %d: Yen(%d→%d, k=%d) = %v, reference %v", trial, s, d, k, got, want)
			}
		}
	}
}

// tieMultigraph is randomMultigraph with weights 0 and 1 only and about
// four arcs per node: undirected edges, parallel pairs and, when oneWay,
// one-way arcs (an undirected edge in their place otherwise, from the same
// draws).
func tieMultigraph(rng *rand.Rand, n int, oneWay bool) *Graph {
	g := New(n)
	for i := 0; i < 4*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		w := float64(rng.Intn(2))
		switch rng.Intn(4) {
		case 0:
			if oneWay {
				g.AddArc(u, v, w)
			} else {
				g.AddEdge(u, v, w)
			}
		case 1:
			g.AddEdge(u, v, w)
			g.AddEdge(u, v, float64(rng.Intn(2)))
		default:
			g.AddEdge(u, v, w)
		}
	}
	return g
}

// TestDijkstraMatchesReference: the typed-heap search settles the same
// distances and predecessor edges as the boxed container/heap loop, tied
// distances included (integer weights make ties common).
func TestDijkstraMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		g := randomMultigraph(rng, n)
		opts := randomOptions(rng, g)
		src := rng.Intn(n)
		got, want := Dijkstra(g, src, opts), dijkstraReference(g, src, opts, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Dijkstra from %d = %+v, reference %+v", trial, src, got, want)
		}
	}
}

// TestMinHeapMatchesContainerHeap: pushes and pops interleaved at random,
// with many tied distances, leave the typed heap and container/heap in the
// same order and pop the same sequence.
func TestMinHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		var got minHeap
		var want priorityQueue
		for op := 0; op < 400; op++ {
			if len(want) == 0 || rng.Intn(3) > 0 {
				it := pqItem{node: op, dist: float64(rng.Intn(6))}
				got.push(it)
				heap.Push(&want, it)
			} else if g, w := got.pop(), heap.Pop(&want).(pqItem); g != w {
				t.Fatalf("trial %d op %d: popped %+v, container/heap %+v", trial, op, g, w)
			}
			if !reflect.DeepEqual([]pqItem(got), []pqItem(want)) {
				t.Fatalf("trial %d op %d: heap layouts diverged", trial, op)
			}
		}
	}
}

// randomMultigraph mixes undirected edges, one-way arcs, parallel arcs and
// self-loops, with small integer weights (0 included) so ties are common.
func randomMultigraph(rng *rand.Rand, n int) *Graph {
	g := New(n)
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		w := float64(rng.Intn(4))
		switch rng.Intn(4) {
		case 0:
			g.AddArc(u, v, w)
		case 1:
			g.AddEdge(u, v, w)
			g.AddEdge(u, v, w+float64(rng.Intn(2)))
		default:
			g.AddEdge(u, v, w)
		}
	}
	return g
}

// randomOptions switches on a node cost table, an edge cost table and
// one hidden edge, each with probability one half. Costs are small
// halves and integers, so ties stay common.
func randomOptions(rng *rand.Rand, g *Graph) DijkstraOptions {
	var opts DijkstraOptions
	n := g.N()
	if rng.Intn(2) == 0 {
		opts.NodeCost = make([]float64, n)
		for v := range opts.NodeCost {
			opts.NodeCost[v] = float64(rng.Intn(3)) / 2
		}
	}
	reweight, hide := rng.Intn(2) == 0, rng.Intn(2) == 0 && g.NumEdgeIDs() > 0
	if reweight || hide {
		opts.EdgeCost = make([]float64, g.NumEdgeIDs())
		for _, es := range g.adj {
			for _, e := range es {
				opts.EdgeCost[e.ID] = e.Weight
				if reweight {
					opts.EdgeCost[e.ID] += float64(e.ID % 3)
				}
			}
		}
		if hide {
			opts.EdgeCost[rng.Intn(g.NumEdgeIDs())] = math.Inf(1)
		}
	}
	return opts
}

// ShortestResult holds single-source shortest path output.
type ShortestResult struct {
	Dist []float64
	// prev[v] is the predecessor node on a shortest path, prevEdge[v] the
	// edge ID used to enter v; both are -1 for the source and unreachable
	// nodes.
	prev     []int
	prevEdge []int
	source   int
}

// PathTo reconstructs a shortest path from the source to t, or nil if t is
// unreachable.
func (r *ShortestResult) PathTo(t int) Path {
	if t < 0 || t >= len(r.Dist) || r.Dist[t] == Unreachable {
		return nil
	}
	var rev []int
	for v := t; v != -1; v = r.prev[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// EdgesTo returns the edge IDs along the shortest path to t, or nil if
// unreachable.
func (r *ShortestResult) EdgesTo(t int) []int {
	if t < 0 || t >= len(r.Dist) || r.Dist[t] == Unreachable || t == r.source {
		return nil
	}
	var rev []int
	for v := t; r.prev[v] != -1; v = r.prev[v] {
		rev = append(rev, r.prevEdge[v])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Dijkstra is the full single-source search (t = -1) on the typed heap,
// kept for tests only: no production path needs every node's distance,
// and the targeted searches (ShortestPathTarget, Yen's spurs) are pinned
// to it by TestShortestPathTargetMatchesFull.
func Dijkstra(g *Graph, source int, opts DijkstraOptions) *ShortestResult {
	var sc DijkstraScratch
	sc.search(g, source, -1, 0, opts, nil)
	return &ShortestResult{Dist: sc.dist, prev: sc.prev, prevEdge: sc.prevEdge, source: source}
}

// priorityQueue is the container/heap adapter the kernel used before the
// typed heap; the reference searches below run on it.
type priorityQueue []pqItem

func (q priorityQueue) Len() int            { return len(q) }
func (q priorityQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q priorityQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *priorityQueue) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *priorityQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// dijkstraReference is the full single-source Dijkstra over
// container/heap that the typed-heap search replaced, with the cost model
// spelled out per arc. forbidden, when non-nil, reports nodes it must not
// enter (the clone-per-spur Yen forbids its root path this way).
func dijkstraReference(g *Graph, source int, opts DijkstraOptions, forbidden func(v int) bool) *ShortestResult {
	n := g.N()
	res := &ShortestResult{
		Dist:     make([]float64, n),
		prev:     make([]int, n),
		prevEdge: make([]int, n),
		source:   source,
	}
	for i := range res.Dist {
		res.Dist[i] = Unreachable
		res.prev[i] = -1
		res.prevEdge[i] = -1
	}
	if source < 0 || source >= n {
		return res
	}
	res.Dist[source] = 0
	done := make([]bool, n)
	pq := priorityQueue{{node: source, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(&pq).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if referenceSettled != nil {
			*referenceSettled++
		}
		depart := it.dist
		if opts.NodeCost != nil && u != source {
			depart += opts.NodeCost[u]
		}
		for _, e := range g.Neighbors(u) {
			if done[e.To] {
				continue
			}
			if forbidden != nil && forbidden(e.To) {
				continue
			}
			w := e.Weight
			if opts.EdgeCost != nil {
				w = opts.EdgeCost[e.ID]
			}
			nd := depart + w
			if nd < res.Dist[e.To] {
				res.Dist[e.To] = nd
				res.prev[e.To] = u
				res.prevEdge[e.To] = e.ID
				heap.Push(&pq, pqItem{node: e.To, dist: nd})
			}
		}
	}
	return res
}

// YenReference and TieMultigraph expose yenReference and tieMultigraph to
// the external-package tests, which can build networks through packages
// that import this one.
var (
	YenReference  = yenReference
	TieMultigraph = tieMultigraph
)

// YenCounts is what CountYenSearches counts: the nodes settled by each
// pass of every YenKShortest call (the distances behind the goal keys,
// the first path's search and the spurs' searches, plain reruns included)
// and the goal-directed searches that reran plain.
type YenCounts struct {
	Distances, First, Spurs, Fallbacks int
}

// Settled is the nodes settled by every pass.
func (c YenCounts) Settled() int { return c.Distances + c.First + c.Spurs }

// CountYenSearches makes every YenKShortest call add its work to *c,
// until the returned func removes the hook. Tests that use it must not
// run YenKShortest concurrently.
func CountYenSearches(c *YenCounts) (restore func()) {
	yenSearchHook = func(sc *DijkstraScratch, pass yenPass, fallback bool) {
		settled := 0
		for _, v := range sc.touched {
			if sc.done[v] {
				settled++
			}
		}
		switch pass {
		case yenDistances:
			c.Distances += settled
		case yenFirst:
			c.First += settled
		default:
			c.Spurs += settled
		}
		if fallback {
			c.Fallbacks++
		}
	}
	return func() { yenSearchHook = nil }
}

// PlainYen keeps every search of a YenKShortest call plain until the
// returned func restores goal direction.
func PlainYen() (restore func()) {
	yenPlain = true
	return func() { yenPlain = false }
}

// referenceSettled, when non-nil, counts the nodes dijkstraReference
// settles.
var referenceSettled *int

// CountReferenceSettled makes every dijkstraReference run (yenReference's
// searches included) add the nodes it settles to *n, until the returned
// func removes the counter.
func CountReferenceSettled(n *int) (restore func()) {
	referenceSettled = n
	return func() { referenceSettled = nil }
}

// yenReference is Yen's algorithm as the kernel ran it before the in-place
// spur search: each spur deep-copies the adjacency without its banned
// (from, to) arcs, forbids the root path, and runs dijkstraReference to
// exhaustion.
func yenReference(g *Graph, s, t, k int, opts DijkstraOptions) []Path {
	if k <= 0 || s < 0 || t < 0 || s >= g.N() || t >= g.N() {
		return nil
	}
	if s == t {
		return []Path{{s}}
	}
	first := dijkstraReference(g, s, opts, nil).PathTo(t)
	if first == nil {
		return nil
	}
	accepted := []Path{first}

	type candidate struct {
		path Path
		len  float64
	}
	var candidates []candidate
	seen := map[string]struct{}{pathKey(first): {}}

	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		for i := 0; i+1 < len(prev); i++ {
			spurNode := prev[i]
			rootPath := prev[:i+1]
			banned := make(map[[2]int]struct{})
			for _, p := range accepted {
				if len(p) > i+1 && Path(p[:i+1]).Equal(rootPath) {
					banned[[2]int{p[i], p[i+1]}] = struct{}{}
				}
			}
			rootSet := make(map[int]struct{}, i)
			for _, v := range rootPath[:i] {
				rootSet[v] = struct{}{}
			}
			inRoot := func(v int) bool {
				_, ok := rootSet[v]
				return ok
			}
			h := g
			if len(banned) > 0 {
				h = New(g.N())
				h.numEdges = g.numEdges
				for u := 0; u < g.N(); u++ {
					for _, e := range g.Neighbors(u) {
						if _, bad := banned[[2]int{u, e.To}]; bad {
							continue
						}
						h.adj[u] = append(h.adj[u], e)
					}
				}
			}
			spurPath := dijkstraReference(h, spurNode, opts, inRoot).PathTo(t)
			if spurPath == nil {
				continue
			}
			total := append(append(Path{}, rootPath...), spurPath[1:]...)
			if !total.Loopless() {
				continue
			}
			key := pathKey(total)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			candidates = append(candidates, candidate{path: total, len: PathLength(g, total, opts)})
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool {
			if candidates[a].len != candidates[b].len {
				return candidates[a].len < candidates[b].len
			}
			return lessPath(candidates[a].path, candidates[b].path)
		})
		accepted = append(accepted, candidates[0].path)
		candidates = candidates[1:]
	}
	return accepted
}

func pathKey(p Path) string {
	b := make([]byte, 0, len(p)*3)
	for _, v := range p {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), ',')
	}
	return string(b)
}

// FuzzYenMatchesReference: on a multigraph decoded from the input (four
// bytes an arc or edge: endpoints, a weight from fuzzWeights, and whether
// it is a one-way arc, a parallel pair or a plain edge), YenKShortest,
// whose searches run goal-directed, returns the reference's paths for the
// fuzzed s, t and k. The integer weights make exact ties; the decimal ones
// make sums that differ by an ulp with the order of summation
// (0.1 + 0.2 > 0.3). The first byte's top bits switch on cost tables, also
// drawn from fuzzWeights: bit 6 a node cost per node (from the input's
// bytes, cyclically), bit 7 an edge cost per edge (from the unused bits of
// its entry). An input whose first byte is below 64 decodes as zero-value
// options, as every input did before the tables.
func FuzzYenMatchesReference(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 1, 2, 1, 2, 2, 3, 2, 2, 0, 3, 3, 2, 1, 4, 0, 2}, uint8(0), uint8(3), uint8(6))
	f.Add([]byte{6, 0, 1, 0, 0, 1, 2, 0, 1, 2, 3, 1, 0, 3, 4, 0, 2, 4, 5, 0, 0, 0, 5, 1, 1}, uint8(0), uint8(5), uint8(9))
	f.Add([]byte{4, 0, 1, 1, 0, 1, 2, 1, 0, 2, 3, 1, 0, 3, 0, 1, 0}, uint8(0), uint8(3), uint8(4))
	// Each input below fails when goalSearch loses one piece: the tie
	// fallback, the expansion past t's pop, or the 1e-9 slack.
	f.Add([]byte("\x0512100000AY%020111B19Y2%201721A10"), uint8(0x00), uint8(0x21), uint8(0x87))
	f.Add([]byte(".1&$1B%011B01%970C%009&%0%0$1%110\x95C00"), uint8(0x1d), uint8(0x01), uint8(0x94))
	f.Add([]byte("&010102002%0000000000=00000000000000000000000+9$1\xcdZ&0.Z&209$00000.+00Z011"), uint8(0x8d), uint8(0x1b), uint8(0x09))
	// The same graphs as the first three, under node costs, edge costs
	// and both.
	f.Add([]byte{5 | 64, 0, 1, 1, 2, 1, 2, 1, 2, 2, 3, 2, 2, 0, 3, 3, 2, 1, 4, 0, 2}, uint8(0), uint8(3), uint8(6))
	f.Add([]byte{6 | 128, 0, 1, 0 | 8, 0, 1, 2, 0 | 16, 1, 2, 3, 1 | 40, 0, 3, 4, 0, 2, 4, 5, 0 | 8, 0, 0, 5, 1 | 24, 1}, uint8(0), uint8(5), uint8(9))
	f.Add([]byte{4 | 192, 0, 1, 1 | 8, 0, 1, 2, 1 | 32, 0, 2, 3, 1, 0, 3, 0, 1 | 48, 0}, uint8(0), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, s, d, k uint8) {
		if len(data) < 1 {
			return
		}
		n := 2 + int(data[0])%24
		g := New(n)
		var edgeCost []float64
		for body := data[1:]; len(body) >= 4; body = body[4:] {
			u, v, w := int(body[0])%n, int(body[1])%n, fuzzWeights[body[2]%8]
			switch body[3] % 4 {
			case 0:
				g.AddArc(u, v, w)
			case 1:
				g.AddEdge(u, v, w)
				g.AddEdge(u, v, fuzzWeights[body[3]/4%8])
				edgeCost = append(edgeCost, fuzzWeights[body[2]/8%8])
			default:
				g.AddEdge(u, v, w)
			}
			edgeCost = append(edgeCost, fuzzWeights[body[2]/8%8])
		}
		var opts DijkstraOptions
		if data[0]&64 != 0 {
			opts.NodeCost = make([]float64, n)
			for v := range opts.NodeCost {
				opts.NodeCost[v] = fuzzWeights[data[(v+1)%len(data)]/8%8]
			}
		}
		if data[0]&128 != 0 {
			opts.EdgeCost = edgeCost
		}
		src, dst, kk := int(s)%n, int(d)%n, 1+int(k)%14
		want := yenReference(g, src, dst, kk, opts)
		if got := YenKShortest(g, src, dst, kk, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("Yen(%d→%d, k=%d) = %v, reference %v", src, dst, kk, got, want)
		}
	})
}

var fuzzWeights = [8]float64{0, 1, 2, 3, 0.1, 0.2, 0.3, 0.7}
