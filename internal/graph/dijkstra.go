package graph

import "math"

// Unreachable is the distance reported for nodes with no path from the
// source.
const Unreachable = math.MaxFloat64

// DijkstraOptions holds the cost tables of a shortest-path run. A search
// only reads them, so one table may serve concurrent searches; a nil table
// means no node costs, or the stored edge weights.
type DijkstraOptions struct {
	// NodeCost, when non-nil, holds one cost per node, added every time a
	// path passes *through* v as an intermediate node (it is charged when
	// departing v, so neither the source nor the final destination pay
	// their own cost). This matches the auxiliary-graph construction in
	// the paper's ECE algorithm, where junction nodes cost −ln q_u.
	NodeCost []float64
	// EdgeCost, when non-nil, replaces each arc's stored weight by the
	// entry of its edge ID. Callers (e.g. the column-generation pricing
	// oracle) re-weight a graph per query this way without rebuilding it.
	// An entry of +Inf hides its edge: no search relaxes it. A negative
	// entry is invalid.
	EdgeCost []float64
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

// PathLength computes the total cost of a path under the same cost model as
// the searches (edge costs plus node costs at intermediate nodes). The edge
// chosen between consecutive nodes is the minimum-cost parallel arc. It
// returns Unreachable if consecutive nodes are not adjacent.
func PathLength(g *Graph, p Path, opts DijkstraOptions) float64 {
	if len(p) == 0 {
		return Unreachable
	}
	var total float64
	for i := 0; i+1 < len(p); i++ {
		if i > 0 && opts.NodeCost != nil {
			total += opts.NodeCost[p[i]]
		}
		best := arcWeight(g, p[i], p[i+1], opts.EdgeCost)
		if best == Unreachable {
			return Unreachable
		}
		total += best
	}
	return total
}

// arcWeight is the cost of the cheapest u→v arc under edgeCost (nil: the
// stored weights), or Unreachable when there is none.
func arcWeight(g *Graph, u, v int, edgeCost []float64) float64 {
	best := Unreachable
	for _, e := range g.Neighbors(u) {
		if e.To != v {
			continue
		}
		w := e.Weight
		if edgeCost != nil {
			w = edgeCost[e.ID]
		}
		if w < best {
			best = w
		}
	}
	return best
}
