package graph

import "math"

// Unreachable is the distance reported for nodes with no path from the
// source.
const Unreachable = math.MaxFloat64

// DijkstraOptions controls a shortest-path run.
type DijkstraOptions struct {
	// NodeWeight, when non-nil, adds NodeWeight(v) every time the path
	// passes *through* v as an intermediate node (it is charged when
	// departing v, so neither the source nor the final destination pay
	// their own weight). This matches the auxiliary-graph construction in
	// the paper's ECE algorithm, where junction nodes cost −ln q_u.
	NodeWeight func(v int) float64
	// Forbidden, when non-nil, reports nodes that must not be traversed.
	// The source is always allowed.
	Forbidden func(v int) bool
	// ForbiddenEdge, when non-nil, reports edge IDs that must not be used.
	ForbiddenEdge func(id int) bool
	// EdgeWeight, when non-nil, overrides the stored weight of each edge.
	// Returning a negative value is invalid. It allows callers (e.g. the
	// column-generation pricing oracle) to re-weight a graph per query
	// without rebuilding it.
	EdgeWeight func(id int, stored float64) float64
}

// pqItem is one heap entry: a node and the tentative distance it was
// pushed with. Stale entries (the node settled since) are skipped at pop.
type pqItem struct {
	node int
	dist float64
}

// minHeap is a binary min-heap of pqItems keyed on dist. push and pop copy
// container/heap's Push/Pop and its up/down sift loops step for step, so
// entries with tied distances pop in the same order they always have,
// without boxing every entry in an interface.
type minHeap []pqItem

func (h *minHeap) push(it pqItem) {
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

func (h *minHeap) pop() pqItem {
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

// ShortestPath returns a shortest path from s to t and its length under
// non-negative edge weights, adding node weights at intermediate nodes and
// honouring node/edge exclusions. Negative edge weights cause undefined
// results. It returns (nil, Unreachable) when no path exists.
func ShortestPath(g *Graph, s, t int, opts DijkstraOptions) (Path, float64) {
	return ShortestPathTarget(g, s, t, opts, nil)
}

// PathLength computes the total cost of a path under the same cost model as
// ShortestPath (edge weights plus node weights at intermediate nodes). The edge
// chosen between consecutive nodes is the minimum-weight parallel arc. It
// returns Unreachable if consecutive nodes are not adjacent.
func PathLength(g *Graph, p Path, opts DijkstraOptions) float64 {
	if len(p) == 0 {
		return Unreachable
	}
	var total float64
	for i := 0; i+1 < len(p); i++ {
		if i > 0 && opts.NodeWeight != nil {
			total += opts.NodeWeight(p[i])
		}
		best := arcWeight(g, p[i], p[i+1], opts)
		if best == Unreachable {
			return Unreachable
		}
		total += best
	}
	return total
}

// arcWeight is the weight of the cheapest allowed u→v arc, or Unreachable
// when there is none.
func arcWeight(g *Graph, u, v int, opts DijkstraOptions) float64 {
	best := Unreachable
	for _, e := range g.Neighbors(u) {
		if e.To != v {
			continue
		}
		if opts.ForbiddenEdge != nil && opts.ForbiddenEdge(e.ID) {
			continue
		}
		w := e.Weight
		if opts.EdgeWeight != nil {
			w = opts.EdgeWeight(e.ID, e.Weight)
		}
		if w < best {
			best = w
		}
	}
	return best
}
