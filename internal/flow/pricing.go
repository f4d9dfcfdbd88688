package flow

import (
	"math"

	"see/internal/graph"
)

// priceScratch holds the reusable buffers of one worker's pricing oracle:
// the layered DP's tables and its two alternating frontiers, and the
// shortest-path search of plain pricing. Each parallel pricing worker owns
// exactly one (see model.price), so no state is shared across goroutines;
// its zero value is ready and grows on first use.
type priceScratch struct {
	dist       []float64
	logq       []float64
	prevNode   []int32
	prevEdge   []int32
	frontier   []int
	next       []int
	inFrontier []bool
	cands      []layerCand
	dijkstra   graph.DijkstraScratch
}

// layerCand is one hop-count layer whose best s→d walk qualifies.
type layerCand struct {
	h  int
	rc float64
	w  float64
}

func (ps *priceScratch) resize(layers, n int) {
	if len(ps.dist) != layers*n {
		ps.dist = make([]float64, layers*n)
		ps.logq = make([]float64, layers*n)
		ps.prevNode = make([]int32, layers*n)
		ps.prevEdge = make([]int32, layers*n)
	}
	if len(ps.inFrontier) != n {
		ps.inFrontier = make([]bool, n)
	}
}

// layeredPrice is the pricing oracle for the swap-weighted objective: it
// finds, over all hop counts h ≤ MaxJunctions+1, the s→d path of exactly h
// segment hops minimizing resource cost, and returns the one maximizing
//
//	w(path) − dualI − cost,   w = Π_{junctions} q_j,
//
// if that exceeds eps. Because a path with h hops has exactly h−1
// junctions, hop count is a DAG layer: dist_h[v] = min over arcs (u,v) of
// dist_{h−1}[u] + cost(u,v), a pure dynamic program with no priority queue.
// For networks with uniform swap probability (the paper's setting) the
// layer fixes w exactly; for heterogeneous q the survival of the stored
// min-cost path is used, a conservative approximation.
//
// Min-cost fixed-hop walks may in principle revisit nodes; such walks are
// strictly dominated (positive arc costs, weights ≤ 1), so loopy
// reconstructions are skipped and a dominating simple path at another
// layer wins instead.
//
// It returns (nil, nil, 0) when no path qualifies.
func (m *model) layeredPrice(ps *priceScratch, i int, dualI, eps float64) (graph.Path, []int, float64) {
	sd := m.set.Pairs[i]
	g := m.set.SegGraph
	n := g.N()
	maxHops := m.opts.MaxJunctions + 1

	ps.resize(maxHops+1, n)
	dist, logq := ps.dist, ps.logq
	prevNode, prevEdge := ps.prevNode, ps.prevEdge
	// Only dist needs resetting: prevNode/prevEdge are read exclusively at
	// entries whose dist was written this call (reconstruct follows layers
	// h…1 of a finite-dist path), so stale values are never observed.
	for k := range dist {
		dist[k] = math.Inf(1)
	}
	dist[sd.S] = 0 // layer 0

	// frontier holds the nodes reached at the previous layer, in the order
	// they were first reached; next collects this layer's. The two buffers
	// swap roles every layer. inFrontier marks membership of next and is
	// all false between layers.
	frontier := append(ps.frontier[:0], sd.S)
	next := ps.next[:0]
	inFrontier := ps.inFrontier
	bestCost, negLogQ := m.bestCost, m.negLogQ
	for h := 1; h <= maxHops && len(frontier) > 0; h++ {
		next = next[:0]
		prevDist, prevLogq := dist[(h-1)*n:h*n], logq[(h-1)*n:h*n]
		hDist, hLogq := dist[h*n:(h+1)*n], logq[h*n:(h+1)*n]
		hNode, hEdge := prevNode[h*n:(h+1)*n], prevEdge[h*n:(h+1)*n]
		for _, u := range frontier {
			base := prevDist[u]
			var addLogq float64
			if u != sd.S {
				addLogq = negLogQ[u]
				if math.IsInf(addLogq, 1) {
					continue
				}
			}
			lq := prevLogq[u] + addLogq
			for _, e := range g.Neighbors(u) {
				// An arc with no usable realization costs +Inf, and
				// base + Inf never beats a stored distance.
				if nd := base + bestCost[e.ID]; nd < hDist[e.To] {
					hDist[e.To] = nd
					hLogq[e.To] = lq
					hNode[e.To] = int32(u)
					hEdge[e.To] = int32(e.ID)
					if !inFrontier[e.To] {
						inFrontier[e.To] = true
						next = append(next, e.To)
					}
				}
			}
		}
		for _, v := range next {
			inFrontier[v] = false
		}
		frontier, next = next, frontier
	}
	ps.frontier, ps.next = frontier, next

	// Rank layers by reduced cost; seeding (dualI = −Inf) accepts the best
	// finite layer unconditionally.
	effDual := dualI
	minRC := eps
	if math.IsInf(dualI, -1) {
		effDual = 0
		minRC = math.Inf(-1)
	}
	cands := ps.cands[:0]
	for h := 1; h <= maxHops; h++ {
		st := h*n + sd.D
		if math.IsInf(dist[st], 1) {
			continue
		}
		w := math.Exp(-logq[st])
		if rc := w - effDual - dist[st]; rc > minRC {
			cands = append(cands, layerCand{h: h, rc: rc, w: w})
		}
	}
	ps.cands = cands[:0] // keep the grown buffer; the loop below only shrinks it
	// Try candidates from best reduced cost down, skipping loopy walks.
	for len(cands) > 0 {
		best := 0
		for k := 1; k < len(cands); k++ {
			if cands[k].rc > cands[best].rc {
				best = k
			}
		}
		nodes, edges := reconstruct(prevNode, prevEdge, n, cands[best].h, sd.D)
		if nodes.Loopless() {
			return nodes, edges, cands[best].w
		}
		cands[best] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return nil, nil, 0
}

func reconstruct(prevNode, prevEdge []int32, n, h, dst int) (graph.Path, []int) {
	nodes := make(graph.Path, h+1)
	edges := make([]int, h)
	v := dst
	for layer := h; layer > 0; layer-- {
		nodes[layer] = v
		edges[layer-1] = int(prevEdge[layer*n+v])
		v = int(prevNode[layer*n+v])
	}
	nodes[0] = v
	return nodes, edges
}
