package graph

import (
	"math/rand"
	"testing"
)

func TestComponents(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	label, count := Components(g)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if label[0] != label[1] || label[2] != label[3] || label[0] == label[2] || label[4] == label[0] || label[4] == label[2] {
		t.Fatalf("bad labels: %v", label)
	}
	if Connected(g) {
		t.Fatal("graph must not be connected")
	}
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	if !Connected(g) {
		t.Fatal("graph must be connected after joining")
	}
}

func TestConnectedEmpty(t *testing.T) {
	if !Connected(New(0)) {
		t.Fatal("empty graph is connected by convention")
	}
	if !Connected(New(1)) {
		t.Fatal("singleton graph is connected")
	}
}

func TestBFSHops(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 9)
	g.AddEdge(1, 2, 9)
	g.AddEdge(0, 3, 9)
	hops := BFSHops(g, 0)
	want := []int{0, 1, 2, 1, -1}
	for v, h := range want {
		if hops[v] != h {
			t.Fatalf("hops[%d] = %d, want %d", v, hops[v], h)
		}
	}
	for _, h := range BFSHops(g, -3) {
		if h != -1 {
			t.Fatal("invalid source must reach nothing")
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.SetCount() != 5 {
		t.Fatalf("SetCount = %d, want 5", uf.SetCount())
	}
	if !uf.Union(0, 1) {
		t.Fatal("first union must succeed")
	}
	if uf.Union(1, 0) {
		t.Fatal("repeated union must report false")
	}
	uf.Union(2, 3)
	uf.Union(0, 3)
	if uf.Find(1) != uf.Find(2) {
		t.Fatal("1 and 2 must share a set")
	}
	if uf.Find(4) == uf.Find(0) {
		t.Fatal("4 must remain separate")
	}
	if uf.SetCount() != 2 {
		t.Fatalf("SetCount = %d, want 2", uf.SetCount())
	}
}

// Property: Components agrees with UnionFind built from the same edges.
func TestComponentsMatchUnionFind(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		g := New(n)
		uf := NewUnionFind(n)
		edges := rng.Intn(2 * n)
		for i := 0; i < edges; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			g.AddEdge(u, v, 1)
			uf.Union(u, v)
		}
		label, count := Components(g)
		if count != uf.SetCount() {
			t.Fatalf("component count %d != union-find %d", count, uf.SetCount())
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if (label[u] == label[v]) != (uf.Find(u) == uf.Find(v)) {
					t.Fatalf("connectivity disagreement for %d,%d", u, v)
				}
			}
		}
	}
}

// UnionFind is a disjoint-set structure with path compression and union by
// size: the reference Components is checked against.
type UnionFind struct {
	parent []int
	size   []int
}

// NewUnionFind returns a UnionFind over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of a and b, returning false if already joined.
func (uf *UnionFind) Union(a, b int) bool {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return false
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	return true
}

// SetCount returns the number of disjoint sets remaining.
func (uf *UnionFind) SetCount() int {
	count := 0
	for i, p := range uf.parent {
		if i == p {
			count++
		}
	}
	return count
}
