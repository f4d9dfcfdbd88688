package flow

import (
	"math"

	"see/internal/graph"
)

// priceScratch holds the reusable buffers of one worker's pricing oracle:
// the layered DP's tables, its per-node dominance bound and its two
// alternating frontiers, and the shortest-path search of plain pricing.
// Each parallel pricing worker owns exactly one (see model.price), so no
// state is shared across goroutines; its zero value is ready and grows on
// first use.
type priceScratch struct {
	dist     []float64
	logq     []float64
	prevNode []int32
	prevEdge []int32
	best     []float64
	frontier []int32
	next     []int32
	cands    []layerCand
	dijkstra graph.DijkstraScratch
	// expanded counts the frontier entries the layered DP has expanded,
	// scanned the arcs it has scanned from them and stored the
	// relaxations that wrote a state, over the scratch's lifetime; tests
	// read them to see the pruning and the seeded layers fire.
	expanded, scanned, stored int
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
	if len(ps.best) != n {
		ps.best = make([]float64, n)
	}
}

// reachOrder is one commodity's frontier order: nodes[off[h]:off[h+1]]
// lists, for layer h, every node some h-hop walk from the source reaches
// over usable arcs (those with a finite-factor realization) through nodes
// with q > 0, in the order an unpruned layered DP first reaches them —
// each frontier scanned in this order, each node's arcs in adjacency order.
//
// The order depends only on which arcs are usable, never on the duals:
// under finite duals priceRealizations gives exactly the usable arcs a
// finite price, so the first scanned usable arc into a node is the one
// that first sets its distance. It is therefore computed once per set of
// tables, and layeredPrice scans each layer in it. That keeps the DP's
// tie-break — a node's predecessor is the first minimizer in scan order —
// exactly the unpruned DP's whatever states are pruned.
type reachOrder struct {
	nodes []int32
	off   []int32
}

func (r reachOrder) layer(h int) []int32 {
	if h+1 >= len(r.off) {
		return nil
	}
	return r.nodes[r.off[h]:r.off[h+1]]
}

// buildReach computes every commodity's reachOrder for hops layers.
func (m *model) buildReach(hops int) {
	g := m.set.SegGraph
	usable := make([]bool, len(m.factors))
	for id, fs := range m.factors {
		for _, f := range fs {
			usable[id] = usable[id] || f < math.Inf(1) // not +Inf or NaN
		}
	}
	// seen[v] == h marks v as already listed at layer h.
	seen := make([]int, g.N())
	m.reach = make([]reachOrder, len(m.set.Pairs))
	for i, sd := range m.set.Pairs {
		for v := range seen {
			seen[v] = -1
		}
		r := reachOrder{nodes: []int32{int32(sd.S)}, off: []int32{0, 1}}
		for h := 1; h <= hops; h++ {
			for _, u := range r.layer(h - 1) {
				if int(u) != sd.S && math.IsInf(m.negLogQ[u], 1) {
					continue
				}
				for _, e := range g.Neighbors(int(u)) {
					if usable[e.ID] && seen[e.To] != h {
						seen[e.To] = h
						r.nodes = append(r.nodes, int32(e.To))
					}
				}
			}
			if int(r.off[h]) == len(r.nodes) {
				break
			}
			r.off = append(r.off, int32(len(r.nodes)))
		}
		m.reach[i] = r
	}
	m.reachHops = hops
}

// buildGoalW computes layerW and goalW for hops layers when q is uniform.
// layerW[h] is exp(−L_h), where L_h is the logq the pruned DP stores at
// layer h (0 at layer 1, then one −ln q added per layer, the same float
// sums): in a pruned round the source is never expanded again, so every
// state at layer h carries L_h and its swap survival is layerW[h], bit
// for bit the exponential of its stored logq. goalW[h] is the largest
// survival of any walk ending at layer h or later, max_{k≥h} layerW[k];
// goalW[hops+1] is −Inf: no walk continues past the last layer. Taking
// the suffix max keeps the goal bound sound without relying on exp being
// monotone.
func (m *model) buildGoalW(hops int) {
	m.goalW, m.layerW = nil, nil
	if !m.uniformQ {
		return
	}
	m.layerW = make([]float64, hops+1)
	m.goalW = make([]float64, hops+2)
	var lq float64
	for h := 1; h <= hops; h++ {
		m.layerW[h] = math.Exp(-lq)
		lq += m.negLogQ[0]
	}
	copy(m.goalW, m.layerW)
	m.goalW[hops+1] = math.Inf(-1)
	for h := hops; h >= 1; h-- {
		m.goalW[h] = math.Max(m.goalW[h], m.goalW[h+1])
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
// Each frontier lists the layer's expanded nodes in the commodity's
// reachOrder. When the round prunes dominated states (pruneDominated:
// uniform q and no negative arc cost), a node enters the next frontier only
// if its distance is below best[v], the least distance to v over the layers
// already built: a state no cheaper than a shorter walk to its node cannot
// lie on the winning walk, and the source (best = 0) is never re-expanded.
// Each layer starts at best[v] rather than +Inf (D excepted), so a
// relaxation that cannot beat a shorter walk to its node stores nothing.
// A pruned round also branches and bounds: it keeps inc, the largest
// reduced cost at d over the layers built so far, and a state (v, h) enters
// the next frontier only if (goalW[h+1] − dualI) − dist_h[v] > max(eps,
// inc), the reduced cost its walks would have if the rest were free
// (seeding rounds take dualI as 0 and the threshold as inc alone). Costs
// are non-negative and w never exceeds goalW, so no walk through a
// rejected state can qualify or beat an earlier layer's walk. The pruned
// DP returns exactly the unpruned one's walk and weight (DESIGN.md §5b),
// and reads each layer's swap survival from layerW rather than
// exponentiating the stored logq, which is the same number there.
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
	prune := m.pruneDominated
	order := m.reach[i]
	// Rank layers by reduced cost against effDual; seeding (dualI = −Inf)
	// accepts the best finite layer unconditionally. thr is the pruned
	// round's bound, max(minRC, inc): it starts at minRC and rises with
	// each layer's reduced cost at d, in the extraction's own expression.
	effDual, minRC := dualI, eps
	if math.IsInf(dualI, -1) {
		effDual, minRC = 0, math.Inf(-1)
	}
	thr := minRC

	ps.resize(maxHops+1, n)
	dist, logq := ps.dist, ps.logq
	prevNode, prevEdge := ps.prevNode, ps.prevEdge
	best := ps.best
	// Each layer's dist is seeded when the layer is reached; layers past the
	// last one built are never read. logq, prevNode and prevEdge are read
	// only at frontier states (the next layer's relaxations and
	// reconstruct's chain, every state of which was expanded) and at D
	// (the extraction), and every such entry was written this call, so
	// stale values are never observed.
	for v := range best {
		best[v] = math.Inf(1)
		dist[v] = math.Inf(1)
	}
	dist[sd.S], logq[sd.S] = 0, 0 // layer 0
	if prune {
		best[sd.S] = 0
	}

	// frontier holds the previous layer's expanded nodes; next collects
	// this layer's. The two buffers swap roles every layer.
	frontier := append(ps.frontier[:0], int32(sd.S))
	next := ps.next
	bestCost, negLogQ := m.bestCost, m.negLogQ
	built, scanned, stored := 0, 0, 0
	for h := 1; h <= maxHops && len(frontier) > 0; h++ {
		ps.expanded += len(frontier)
		prevDist, prevLogq := dist[(h-1)*n:h*n], logq[(h-1)*n:h*n]
		hDist, hLogq := dist[h*n:(h+1)*n], logq[h*n:(h+1)*n]
		hNode, hEdge := prevNode[h*n:(h+1)*n], prevEdge[h*n:(h+1)*n]
		// Seed the layer with best[v] (+Inf in a round that does not
		// prune): a relaxation then stores only if it beats every shorter
		// walk to its node, and a node that stores nothing keeps best[v]
		// and fails the frontier test below, as it would at +Inf. D keeps
		// +Inf because the incumbent and the extraction read its distance
		// at every layer (DESIGN.md §5b).
		copy(hDist, best)
		hDist[sd.D] = math.Inf(1)
		for _, u := range frontier {
			base := prevDist[u]
			var addLogq float64
			if int(u) != sd.S {
				addLogq = negLogQ[u]
				if math.IsInf(addLogq, 1) {
					continue
				}
			}
			arcs := g.Neighbors(int(u))
			scanned += len(arcs)
			stored += relaxArcs(arcs, bestCost, u, base, prevLogq[u]+addLogq, hDist, hLogq, hNode, hEdge)
		}
		built = h
		// Without pruning best stays +Inf, so every reached node enters.
		// best[v] records a dominating state even when the bound rejects
		// it, so the bound only removes states the dominance rule keeps.
		next = next[:0]
		var reach float64
		if prune {
			if d := hDist[sd.D]; d < math.Inf(1) {
				if rc := m.layerW[h] - effDual - d; rc > thr {
					thr = rc
				}
			}
			reach = m.goalW[h+1] - effDual
		}
		for _, v := range order.layer(h) {
			if d := hDist[v]; d < best[v] {
				if prune {
					best[v] = d
				}
				if !prune || reach-d > thr {
					next = append(next, v)
				}
			}
		}
		frontier, next = next, frontier
	}
	ps.frontier, ps.next = frontier, next
	ps.scanned += scanned
	ps.stored += stored

	cands := ps.cands[:0]
	for h := 1; h <= built; h++ {
		st := h*n + sd.D
		if math.IsInf(dist[st], 1) {
			continue
		}
		var w float64
		if prune {
			w = m.layerW[h]
		} else {
			w = math.Exp(-logq[st])
		}
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

// relaxArcs relaxes u's arcs into one layer: an arc stores its head's
// distance base + cost, the logq lq and u as its predecessor only if it
// beats the layer's value there, and relaxArcs returns how many stored.
// It is kept out of layeredPrice, whose many live values would otherwise
// spill this loop's slices to the stack and reload them on every arc.
//
//go:noinline
func relaxArcs(arcs []graph.Edge, cost []float64, u int32, base, lq float64, dist, logq []float64, node, edge []int32) int {
	logq, node, edge = logq[:len(dist)], node[:len(dist)], edge[:len(dist)]
	stored := 0
	for _, e := range arcs {
		// An arc with no usable realization costs +Inf, and base + Inf
		// never beats a stored distance.
		if nd := base + cost[e.ID]; nd < dist[e.To] {
			dist[e.To] = nd
			logq[e.To] = lq
			node[e.To] = u
			edge[e.To] = int32(e.ID)
			stored++
		}
	}
	return stored
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
