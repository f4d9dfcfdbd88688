package graph_test

import (
	"fmt"

	"see/internal/graph"
)

// Shortest paths with combined edge and node costs (the ECE auxiliary
// graph uses node cost −ln q at junctions); a nil scratch allocates one.
func ExampleShortestPathTarget() {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 3, 1)
	// Junction 1 is expensive, junction 2 cheap.
	cost := []float64{0, 5, 0, 0}
	path, dist := graph.ShortestPathTarget(g, 0, 3, graph.DijkstraOptions{NodeCost: cost}, nil)
	fmt.Println(path, dist)
	// Output: [0 2 3] 2
}

// Yen's algorithm enumerates loopless alternatives in length order — the
// candidate physical paths of §III-D.
func ExampleYenKShortest() {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 2)
	g.AddEdge(2, 3, 2)
	g.AddEdge(0, 3, 5)
	for _, p := range graph.YenKShortest(g, 0, 3, 3, graph.DijkstraOptions{}) {
		fmt.Println(p)
	}
	// Output:
	// [0 1 3]
	// [0 2 3]
	// [0 3]
}

// Max flow bounds how many connections any selection can assemble from
// realized segments.
func ExampleMaxFlow() {
	m := graph.NewMaxFlow(4)
	m.AddUndirected(0, 1, 2) // two realized segments 0-1
	m.AddUndirected(1, 3, 1)
	m.AddUndirected(0, 2, 1)
	m.AddUndirected(2, 3, 1)
	fmt.Println(m.Solve(0, 3))
	// Output: 2
}
