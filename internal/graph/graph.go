// Package graph provides the graph substrate used throughout the simulator:
// adjacency structures, shortest-path algorithms (Dijkstra with combined
// edge and node weights), Yen's K-shortest loopless paths, and
// connectivity utilities. The shortest-path queries and every Yen spur
// share one typed binary heap and reusable scratch buffers.
//
// Nodes are dense integers in [0, N). Edges carry a float64 weight and an
// opaque integer ID so that callers can attach attributes (lengths,
// capacities, success probabilities) in side tables.
package graph

import (
	"fmt"
	"slices"
)

// Edge is a directed arc stored in an adjacency list.
type Edge struct {
	To     int
	Weight float64
	// ID identifies the underlying edge. For undirected graphs both arcs of
	// an edge share one ID, which callers use to index edge attribute
	// tables.
	ID int
}

// Graph is a directed multigraph with a fixed node count. The zero value is
// unusable; construct with New.
type Graph struct {
	adj      [][]Edge
	numEdges int
	// undirected holds while every arc was added by AddEdge, so each arc
	// has a reverse twin of equal weight and distances to a node are
	// distances from it. AddArc clears it; Reset restores it.
	undirected bool
}

// New returns an empty graph with n nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{adj: make([][]Edge, n), undirected: true}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// NumEdgeIDs returns the number of edge IDs allocated so far.
func (g *Graph) NumEdgeIDs() int { return g.numEdges }

// AddArc inserts a directed arc and returns its edge ID.
func (g *Graph) AddArc(from, to int, weight float64) int {
	id := g.numEdges
	g.numEdges++
	g.adj[from] = append(g.adj[from], Edge{To: to, Weight: weight, ID: id})
	g.undirected = false
	return id
}

// AddEdge inserts an undirected edge (two arcs sharing one ID) and returns
// the ID.
func (g *Graph) AddEdge(u, v int, weight float64) int {
	id := g.numEdges
	g.numEdges++
	g.adj[u] = append(g.adj[u], Edge{To: v, Weight: weight, ID: id})
	g.adj[v] = append(g.adj[v], Edge{To: u, Weight: weight, ID: id})
	return id
}

// Reset empties the graph in place, keeping the node count and every
// adjacency list's backing array. Per-slot auxiliary graphs (the ECE
// stitch graph) are rebuilt through one retained Graph this way, so
// steady-state slots add edges into already-sized arrays instead of
// re-growing fresh lists.
func (g *Graph) Reset() {
	for u := range g.adj {
		g.adj[u] = g.adj[u][:0]
	}
	g.numEdges = 0
	g.undirected = true
}

// Neighbors returns the adjacency list of u. The slice is owned by the
// graph; callers must not mutate it.
func (g *Graph) Neighbors(u int) []Edge { return g.adj[u] }

// Degree returns the out-degree of u (for undirected graphs, its degree).
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// SetWeightByID updates the weight on every arc carrying the given edge ID.
// It is O(E); use it for small graphs or infrequent updates.
func (g *Graph) SetWeightByID(id int, weight float64) {
	for u := range g.adj {
		for i := range g.adj[u] {
			if g.adj[u][i].ID == id {
				g.adj[u][i].Weight = weight
			}
		}
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]Edge, len(g.adj)), numEdges: g.numEdges, undirected: g.undirected}
	for u, es := range g.adj {
		c.adj[u] = append([]Edge(nil), es...)
	}
	return c
}

// Validate checks internal consistency (arc endpoints in range, non-negative
// IDs). It is intended for tests and debug assertions.
func (g *Graph) Validate() error {
	for u, es := range g.adj {
		for _, e := range es {
			if e.To < 0 || e.To >= len(g.adj) {
				return fmt.Errorf("graph: arc %d->%d out of range [0,%d)", u, e.To, len(g.adj))
			}
			if e.ID < 0 || e.ID >= g.numEdges {
				return fmt.Errorf("graph: arc %d->%d has invalid ID %d", u, e.To, e.ID)
			}
		}
	}
	return nil
}

// Path is a node sequence. A valid path has at least one node; a path with
// one node has zero hops.
type Path []int

// Hops returns the number of edges in the path.
func (p Path) Hops() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

// looplessScanMax is the longest path Loopless checks by comparing every
// pair of nodes; longer paths sort a copy instead.
const looplessScanMax = 32

// Loopless reports whether the path visits each node at most once. It
// allocates nothing for paths of up to looplessScanMax nodes, which is
// every Yen candidate and priced column at the paper's scale.
func (p Path) Loopless() bool {
	if len(p) > looplessScanMax {
		s := slices.Clone(p)
		slices.Sort(s)
		for i := 1; i < len(s); i++ {
			if s[i] == s[i-1] {
				return false
			}
		}
		return true
	}
	for i := 1; i < len(p); i++ {
		if slices.Contains(p[:i], p[i]) {
			return false
		}
	}
	return true
}

// Equal reports whether two paths are identical node sequences.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}
