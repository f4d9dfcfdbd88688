package graph

// Components labels the connected components of the graph treating every
// arc as traversable in its stored direction (for undirected graphs this is
// ordinary connectivity). It returns the component ID of each node and the
// number of components.
func Components(g *Graph) (label []int, count int) {
	n := g.N()
	label = make([]int, n)
	for i := range label {
		label[i] = -1
	}
	var stack []int
	for v := 0; v < n; v++ {
		if label[v] != -1 {
			continue
		}
		label[v] = count
		stack = append(stack[:0], v)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.Neighbors(u) {
				if label[e.To] == -1 {
					label[e.To] = count
					stack = append(stack, e.To)
				}
			}
		}
		count++
	}
	return label, count
}

// Connected reports whether the graph has exactly one connected component
// (empty graphs are considered connected).
func Connected(g *Graph) bool {
	_, c := Components(g)
	return c <= 1
}

// BFSHops returns the minimum hop count from source to every node
// (Unreachable-like -1 for unreachable nodes).
func BFSHops(g *Graph, source int) []int {
	n := g.N()
	hops := make([]int, n)
	for i := range hops {
		hops[i] = -1
	}
	if source < 0 || source >= n {
		return hops
	}
	hops[source] = 0
	queue := []int{source}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.Neighbors(u) {
			if hops[e.To] == -1 {
				hops[e.To] = hops[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return hops
}
