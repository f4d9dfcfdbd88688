package graph

// BellmanFord computes single-source shortest path distances by edge
// relaxation. It is O(V·E), the property-test oracle for Dijkstra, and
// supports the same intermediate-node costs.
//
// The bool result is false if a negative cycle is reachable from the source.
func BellmanFord(g *Graph, source int, opts DijkstraOptions) ([]float64, bool) {
	n := g.N()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	if source < 0 || source >= n {
		return dist, true
	}
	dist[source] = 0
	relaxAll := func() bool {
		changed := false
		for u := 0; u < n; u++ {
			if dist[u] == Unreachable {
				continue
			}
			depart := dist[u]
			if opts.NodeCost != nil && u != source {
				depart += opts.NodeCost[u]
			}
			for _, e := range g.Neighbors(u) {
				w := e.Weight
				if opts.EdgeCost != nil {
					w = opts.EdgeCost[e.ID]
				}
				if nd := depart + w; nd < dist[e.To] {
					dist[e.To] = nd
					changed = true
				}
			}
		}
		return changed
	}
	for i := 0; i < n-1; i++ {
		if !relaxAll() {
			return dist, true
		}
	}
	return dist, !relaxAll()
}
