package graph

import (
	"math"
	"slices"
)

// DijkstraScratch holds the reusable per-call buffers of a shortest-path
// search. Column generation runs thousands of small queries per solve
// (plain pricing) and Yen one per spur; one scratch per caller makes a
// query allocate nothing and reset only the entries the previous search
// wrote (the touched list), not all n. ShortestPathTarget,
// ShortestPathEdgesTarget and every Yen search run over one, on graphs of
// any size (a goal-directed Yen search runs goalSearch).
// The zero value is ready and grows on first use. Not safe for
// concurrent queries.
type DijkstraScratch struct {
	dist     []float64
	prev     []int
	prevEdge []int
	done     []bool
	// touched lists the nodes whose entries the last search wrote; every
	// other entry below len(dist) is in its reset state.
	touched []int
	pq      minHeap
}

// reset restores the touched entries, or all n after a change of graph
// size, so every node is unreached and unsettled.
func (sc *DijkstraScratch) reset(n int) {
	for _, v := range sc.touched {
		sc.dist[v] = Unreachable
		sc.prev[v] = -1
		sc.prevEdge[v] = -1
		sc.done[v] = false
	}
	sc.touched = sc.touched[:0]
	sc.pq = sc.pq[:0]
	if len(sc.dist) == n {
		return
	}
	if cap(sc.dist) < n {
		sc.dist = make([]float64, n)
		sc.prev = make([]int, n)
		sc.prevEdge = make([]int, n)
		sc.done = make([]bool, n)
	}
	sc.dist, sc.prev, sc.prevEdge, sc.done = sc.dist[:n], sc.prev[:n], sc.prevEdge[:n], sc.done[:n]
	for i := range n {
		sc.dist[i] = Unreachable
		sc.prev[i] = -1
		sc.prevEdge[i] = -1
		sc.done[i] = false
	}
}

// spurBan is what a Yen spur search must avoid: every arc from the spur
// node (the search source) to a node in targets, all parallel arcs
// included, and every node v with root[v] == epoch (the root path before
// the spur node).
type spurBan struct {
	targets []int
	root    []uint32
	epoch   uint32
}

// search runs Dijkstra from s into sc and reports whether t was settled.
// With t a node, it stops once t is settled: under non-negative costs
// t's distance and predecessor chain are final at pop time and every node
// on the chain is already settled, so the path to t is exactly the full
// run's. t = -1 settles every reachable node. ban, when non-nil, hides a
// Yen spur's banned arcs and root nodes as if they were not in g, keeping
// the adjacency order of the rest, so the search relaxes the same arcs in
// the same order as one over a copy of g with them removed.
//
// A positive bound ends the search at the first pop whose distance is at
// least bound, leaving t unsettled. That is exact: popped distances never
// decrease, so t settles below bound iff the unbounded search settles it
// below bound, and every push and pop before the stop is the unbounded
// search's, so ties break the same way.
func (sc *DijkstraScratch) search(g *Graph, s, t int, bound float64, opts DijkstraOptions, ban *spurBan) bool {
	n := g.N()
	sc.reset(n)
	if s < 0 || s >= n {
		return false
	}
	nodeCost, edgeCost := opts.NodeCost, opts.EdgeCost
	sc.dist[s] = 0
	sc.touched = append(sc.touched, s)
	sc.pq.push(pqItem{node: s, dist: 0})
	for len(sc.pq) > 0 {
		it := sc.pq.pop()
		if bound > 0 && it.dist >= bound {
			return false
		}
		u := it.node
		if sc.done[u] {
			continue
		}
		sc.done[u] = true
		if u == t {
			return true
		}
		// Departing u costs its node cost, unless u is the source.
		depart := it.dist
		if nodeCost != nil && u != s {
			depart += nodeCost[u]
		}
		var banned []int
		if ban != nil && u == s {
			banned = ban.targets
		}
		for _, e := range g.Neighbors(u) {
			if sc.done[e.To] {
				continue
			}
			if ban != nil && (ban.root[e.To] == ban.epoch || slices.Contains(banned, e.To)) {
				continue
			}
			w := e.Weight
			if edgeCost != nil {
				w = edgeCost[e.ID]
			}
			nd := depart + w
			if nd < sc.dist[e.To] {
				if sc.dist[e.To] == Unreachable {
					sc.touched = append(sc.touched, e.To)
				}
				sc.dist[e.To] = nd
				sc.prev[e.To] = u
				sc.prevEdge[e.To] = e.ID
				sc.pq.push(pqItem{node: e.To, dist: nd})
			}
		}
	}
	return false
}

// goalSearch is search run as A*: the heap is keyed on dist + key, where
// key[v] is v's node cost plus its distance to t in g without bans, under
// opts' costs (key[t] = 0, and Unreachable where t cannot be reached; see
// YenScratch.goalKeys). The source, which pays no node cost, is pushed at
// key 0, the only entry of the heap at the time. Bans only remove arcs and
// nodes, so the key stays a lower bound on the banned cost of the rest of
// a path, and it never drops by more than the cost of a step (u's node
// cost plus the arc's) along that step. Nodes that cannot reach t are
// never pushed, t is never expanded, and the search pops until the key
// exceeds lim = min(dist[t], bound)·(1 + 1e-9), so it expands every node
// that can lie on a shortest s→t path, or precede one of its nodes at a
// tied distance, whatever the rounding of the keys. found reports whether
// t was reached below a positive bound (any distance without one).
//
// exact is false when a relaxation from another node exactly ties a
// tentative distance, or reaches a settled node at or below its distance:
// only there can the order of pops pick a different predecessor than
// search's, and the caller reruns search. Otherwise every expanded node
// took its distance from one strictly best expanded neighbour, the one
// search settles it through, so the path to t is search's, node for node
// (DESIGN.md §5b). Distances are summed as search sums them.
func (sc *DijkstraScratch) goalSearch(g *Graph, s, t int, bound float64, key []float64, opts DijkstraOptions, ban *spurBan) (found, exact bool) {
	sc.reset(g.N())
	if key[s] == Unreachable {
		return false, true
	}
	lim := math.Inf(1)
	if bound > 0 {
		lim = bound * (1 + 1e-9)
	}
	nodeCost, edgeCost := opts.NodeCost, opts.EdgeCost
	sc.dist[s] = 0
	sc.touched = append(sc.touched, s)
	sc.pq.push(pqItem{node: s, dist: 0})
	for len(sc.pq) > 0 {
		it := sc.pq.pop()
		if it.dist > lim {
			break
		}
		u := it.node
		if sc.done[u] {
			continue
		}
		sc.done[u] = true
		if u == t {
			continue
		}
		depart := sc.dist[u]
		if nodeCost != nil && u != s {
			depart += nodeCost[u]
		}
		for _, e := range g.Neighbors(u) {
			v := e.To
			if key[v] == Unreachable || ban.root[v] == ban.epoch || u == s && slices.Contains(ban.targets, v) {
				continue
			}
			w := e.Weight
			if edgeCost != nil {
				w = edgeCost[e.ID]
			}
			nd := depart + w
			k := nd + key[v]
			if k > lim {
				continue
			}
			switch dv := sc.dist[v]; {
			case sc.done[v]:
				if nd <= dv {
					return false, false
				}
				continue
			case nd > dv:
				continue
			case nd == dv:
				if sc.prev[v] != u {
					return false, false
				}
				continue
			case dv == Unreachable:
				sc.touched = append(sc.touched, v)
			}
			sc.dist[v] = nd
			sc.prev[v] = u
			sc.prevEdge[v] = e.ID
			sc.pq.push(pqItem{node: v, dist: k})
			if v == t {
				lim = min(lim, nd*(1+1e-9))
			}
		}
	}
	return sc.done[t] && (bound <= 0 || sc.dist[t] < bound), true
}

// appendPath appends the s→t predecessor chain of the last search to dst.
// t must be reachable from s.
func (sc *DijkstraScratch) appendPath(dst Path, s, t int) Path {
	hops := 0
	for v := t; v != s; v = sc.prev[v] {
		hops++
	}
	start := len(dst)
	dst = slices.Grow(dst, hops+1)[:start+hops+1]
	for i, v := start+hops, t; i >= start; i, v = i-1, sc.prev[v] {
		dst[i] = v
	}
	return dst
}

// ShortestPathTarget returns a shortest path from s to t and its cost
// under non-negative edge costs, adding node costs at intermediate nodes
// (negative edge costs cause undefined results), with all working storage
// taken from sc (nil allocates fresh buffers). The search stops as soon as
// the target is settled, which returns the full single-source search's
// path and distance (see search). Returns (nil, Unreachable) when no path
// exists.
func ShortestPathTarget(g *Graph, s, t int, opts DijkstraOptions, sc *DijkstraScratch) (Path, float64) {
	if sc == nil {
		sc = &DijkstraScratch{}
	}
	if t < 0 || t >= g.N() || !sc.search(g, s, t, 0, opts, nil) {
		return nil, Unreachable
	}
	return sc.appendPath(nil, s, t), sc.dist[t]
}

// ShortestPathEdgesTarget is ShortestPathTarget that also returns the IDs
// of the edges along the path, in path order: the predecessor edges the
// full single-source search would record, found by the targeted search on
// sc's buffers (nil allocates fresh ones). Returns
// (nil, nil, Unreachable) when no path exists.
func ShortestPathEdgesTarget(g *Graph, s, t int, opts DijkstraOptions, sc *DijkstraScratch) (Path, []int, float64) {
	if sc == nil {
		sc = &DijkstraScratch{}
	}
	path, dist := ShortestPathTarget(g, s, t, opts, sc)
	if path == nil {
		return nil, nil, Unreachable
	}
	var edges []int
	if len(path) > 1 {
		edges = make([]int, len(path)-1)
		for i := len(path) - 1; i > 0; i-- {
			edges[i-1] = sc.prevEdge[path[i]]
		}
	}
	return path, edges, dist
}
