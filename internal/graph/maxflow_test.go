package graph

import (
	"math/rand"
	"testing"
)

func TestMaxFlowLine(t *testing.T) {
	m := NewMaxFlow(3)
	m.AddEdge(0, 1, 5)
	m.AddEdge(1, 2, 3)
	if got := m.Solve(0, 2); got != 3 {
		t.Fatalf("flow = %d, want 3", got)
	}
}

func TestMaxFlowClassic(t *testing.T) {
	// CLRS-style example.
	m := NewMaxFlow(6)
	m.AddEdge(0, 1, 16)
	m.AddEdge(0, 2, 13)
	m.AddEdge(1, 2, 10)
	m.AddEdge(2, 1, 4)
	m.AddEdge(1, 3, 12)
	m.AddEdge(3, 2, 9)
	m.AddEdge(2, 4, 14)
	m.AddEdge(4, 3, 7)
	m.AddEdge(3, 5, 20)
	m.AddEdge(4, 5, 4)
	if got := m.Solve(0, 5); got != 23 {
		t.Fatalf("flow = %d, want 23", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	m := NewMaxFlow(4)
	m.AddEdge(0, 1, 9)
	m.AddEdge(2, 3, 9)
	if got := m.Solve(0, 3); got != 0 {
		t.Fatalf("flow = %d, want 0", got)
	}
	m2 := NewMaxFlow(2)
	if got := m2.Solve(0, 0); got != 0 {
		t.Fatal("s == t must have zero flow")
	}
}

func TestMaxFlowUndirected(t *testing.T) {
	// Two undirected parallel 2-paths between 0 and 3.
	m := NewMaxFlow(4)
	m.AddUndirected(0, 1, 1)
	m.AddUndirected(1, 3, 1)
	m.AddUndirected(0, 2, 1)
	m.AddUndirected(2, 3, 1)
	if got := m.Solve(0, 3); got != 2 {
		t.Fatalf("flow = %d, want 2", got)
	}
}

// Property: max flow equals min cut on random graphs — checked against a
// brute-force enumeration of s-t cuts on small instances.
func TestMaxFlowEqualsMinCut(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		type edge struct{ u, v, c int }
		var edges []edge
		m := NewMaxFlow(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.4 {
					c := 1 + rng.Intn(5)
					edges = append(edges, edge{u, v, c})
					m.AddEdge(u, v, c)
				}
			}
		}
		s, t2 := 0, n-1
		flow := m.Solve(s, t2)
		// Min cut by enumerating subsets containing s but not t.
		minCut := 1 << 30
		for mask := 0; mask < 1<<n; mask++ {
			if mask&(1<<s) == 0 || mask&(1<<t2) != 0 {
				continue
			}
			cut := 0
			for _, e := range edges {
				if mask&(1<<e.u) != 0 && mask&(1<<e.v) == 0 {
					cut += e.c
				}
			}
			if cut < minCut {
				minCut = cut
			}
		}
		if flow != minCut {
			t.Fatalf("trial %d: flow %d != min cut %d", trial, flow, minCut)
		}
	}
}

// TestMaxFlowResetMatchesFresh solves one network again and again, reset
// to random capacity vectors between solves (directed and undirected arcs
// mixed), and requires every value to equal a fresh network's over the
// same arcs and capacities, for random s–t pairs.
func TestMaxFlowResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(8)
		type arc struct {
			u, v       int
			undirected bool
		}
		var arcs []arc
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.3 {
					arcs = append(arcs, arc{u, v, rng.Intn(2) == 0})
				}
			}
		}
		build := func(caps []int) *MaxFlow {
			m := NewMaxFlow(n)
			for k, a := range arcs {
				var id int
				if a.undirected {
					id = m.AddUndirected(a.u, a.v, caps[2*k])
				} else {
					id = m.AddEdge(a.u, a.v, caps[2*k])
				}
				if id != 2*k {
					t.Fatalf("arc %d got index %d, want %d", k, id, 2*k)
				}
			}
			return m
		}
		randCaps := func() []int {
			caps := make([]int, 2*len(arcs))
			for k, a := range arcs {
				caps[2*k] = rng.Intn(6)
				if a.undirected {
					caps[2*k+1] = caps[2*k]
				}
			}
			return caps
		}
		reused := build(randCaps())
		for solve := 0; solve < 8; solve++ {
			caps := randCaps()
			s, d := rng.Intn(n), rng.Intn(n)
			reused.Reset(caps)
			if got, want := reused.Solve(s, d), build(caps).Solve(s, d); got != want {
				t.Fatalf("trial %d solve %d (%d→%d): reset network %d, fresh %d", trial, solve, s, d, got, want)
			}
		}
	}
}

// AddEdge inserts a directed edge with the given capacity (and a residual
// reverse edge of capacity 0). It returns the forward arc's index.
func (m *MaxFlow) AddEdge(from, to, capacity int) int {
	return m.addArcs(from, to, capacity, 0)
}
