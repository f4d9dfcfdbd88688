package sched

import (
	"math"
	"slices"

	"see/internal/graph"
	"see/internal/qnet"
)

// Auxiliary-graph weights of StitchRoutes (the paper's Algorithm 3).
const (
	routeAvailableWeight = 1e-5
	routeMissingWeight   = 1e9
	// routeRejectThreshold rejects any route that traverses a missing
	// segment: a usable route costs at most hops·1e-5 + Σ(−ln q), far
	// below 1e8 for any q the simulator produces.
	routeRejectThreshold = 1e8
)

// routeSearch is StitchRoutes' shortest-path search on the auxiliary
// graph, sized to the loop's one query: the cheapest route below
// routeRejectThreshold between two nodes, under edge weight 1e-5 while the
// aux edge's endpoint pair has a segment left in the pool and 1e9 once it
// has none, plus the node weight −ln q of every junction departed. It
// returns exactly the route of graph's targeted Dijkstra over the same
// graph and weights (DESIGN.md §5b): it pushes, pops and relaxes as that
// search does, and its two shortcuts only skip work whose outcome is
// already decided.
//
// Per-node entries are valid only where their stamp equals the current
// epoch, so a search resets nothing but the heap. The zero value is unset;
// init sizes it to a network.
type routeSearch struct {
	// nodeW is the junction weight per node (−ln q, or routeMissingWeight
	// where q ≤ 0) and minNodeW its minimum, derived once: the network
	// never changes.
	nodeW    []float64
	minNodeW float64

	dist     []float64
	prev     []int32 // predecessor node on the route
	prevEdge []int32 // aux edge ID the node was reached by
	// seen[v] == epoch: dist, prev and prevEdge of v hold this search's
	// values. done[v] == epoch: v is settled.
	seen, done []uint32
	epoch      uint32
	heap       routeHeap
}

// init sizes the search to the network's nodes and derives the junction
// weights.
func (rs *routeSearch) init(q []float64) {
	n := len(q)
	rs.nodeW = make([]float64, n)
	rs.minNodeW = math.Inf(1)
	for u := range rs.nodeW {
		if q[u] <= 0 {
			rs.nodeW[u] = routeMissingWeight
		} else {
			rs.nodeW[u] = -math.Log(q[u])
		}
		rs.minNodeW = min(rs.minNodeW, rs.nodeW[u])
	}
	rs.dist = make([]float64, n)
	rs.prev = make([]int32, n)
	rs.prevEdge = make([]int32, n)
	rs.seen = make([]uint32, n)
	rs.done = make([]uint32, n)
}

// find searches aux from s to t ≠ s (segment.Build rejects a pair with
// S = D), where auxIdx maps each aux edge ID to its endpoint pair's pool
// index, and reports whether t has a route below routeRejectThreshold;
// appendPath and prevEdge then read it. A failed search leaves nothing a
// caller reads.
//
// Endpoint check: when either endpoint has no aux arc with a segment
// left, every route pays at least one 1e9 arc, so find fails without a
// search.
//
// Early stop: the search returns as soon as it relaxes an arc u→t to a
// cost nd < routeRejectThreshold with nd ≤ (dist_u + minNodeW) + 1e-5.
// Pops never decrease, every later departure pays at least minNodeW, every
// arc costs at least 1e-5, and IEEE addition is monotone, so no later
// relaxation reaches t for less than nd; updates need a strict <, so t's
// predecessor is final and the full search would pop t at nd.
func (rs *routeSearch) find(aux *graph.Graph, s, t int, pool *qnet.Pool, auxIdx []int) bool {
	if !hasSegmentArc(aux, s, pool, auxIdx) || !hasSegmentArc(aux, t, pool, auxIdx) {
		return false
	}
	rs.epoch++
	if rs.epoch == 0 {
		clear(rs.seen)
		clear(rs.done)
		rs.epoch = 1
	}
	ep := rs.epoch
	dist, prev, prevEdge, seen, done := rs.dist, rs.prev, rs.prevEdge, rs.seen, rs.done
	rs.heap = rs.heap[:0]
	dist[s], seen[s] = 0, ep
	rs.heap.push(routeItem{node: int32(s), dist: 0})
	for len(rs.heap) > 0 {
		it := rs.heap.pop()
		if it.dist >= routeRejectThreshold {
			return false
		}
		u := int(it.node)
		if done[u] == ep {
			continue
		}
		done[u] = ep
		if u == t {
			return true
		}
		// Departing u costs its node weight, unless u is the source.
		depart := it.dist
		if u != s {
			depart += rs.nodeW[u]
		}
		stopAt := (it.dist + rs.minNodeW) + routeAvailableWeight
		for _, e := range aux.Neighbors(u) {
			v := e.To
			if done[v] == ep {
				continue
			}
			nd := depart + routeMissingWeight
			if pool.AvailableAt(auxIdx[e.ID]) >= 1 {
				nd = depart + routeAvailableWeight
			}
			if seen[v] != ep || nd < dist[v] {
				dist[v], prev[v], prevEdge[v], seen[v] = nd, int32(u), int32(e.ID), ep
				if v == t && nd < routeRejectThreshold && nd <= stopAt {
					return true
				}
				rs.heap.push(routeItem{node: int32(v), dist: nd})
			}
		}
	}
	return false
}

// hasSegmentArc reports whether some aux arc at u still has a segment
// left in the pool.
func hasSegmentArc(aux *graph.Graph, u int, pool *qnet.Pool, auxIdx []int) bool {
	for _, e := range aux.Neighbors(u) {
		if pool.AvailableAt(auxIdx[e.ID]) >= 1 {
			return true
		}
	}
	return false
}

// appendPath appends the s→t route of the last successful find to dst.
func (rs *routeSearch) appendPath(dst graph.Path, s, t int) graph.Path {
	hops := 0
	for v := t; v != s; v = int(rs.prev[v]) {
		hops++
	}
	start := len(dst)
	dst = slices.Grow(dst, hops+1)[:start+hops+1]
	for i, v := start+hops, t; i >= start; i, v = i-1, int(rs.prev[v]) {
		dst[i] = v
	}
	return dst
}

// routeItem is one heap entry: a node and the cost it was pushed with.
// Stale entries (the node settled since) are skipped at pop.
type routeItem struct {
	dist float64
	node int32
}

// routeHeap is a binary min-heap of routeItems keyed on dist. push and pop
// are graph's minHeap step for step (itself container/heap's sift loops),
// so entries with tied costs pop in the same order as in graph's search.
type routeHeap []routeItem

func (h *routeHeap) push(it routeItem) {
	*h = append(*h, it)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *routeHeap) pop() routeItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].dist < q[j1].dist {
			j = j2 // right child
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}
