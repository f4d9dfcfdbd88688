package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestNewAndAdd(t *testing.T) {
	g := New(4)
	if g.N() != 4 {
		t.Fatalf("N() = %d, want 4", g.N())
	}
	id1 := g.AddEdge(0, 1, 2.5)
	id2 := g.AddArc(1, 2, 1.0)
	if id1 == id2 {
		t.Fatal("edge IDs must be distinct")
	}
	if g.NumEdgeIDs() != 2 {
		t.Fatalf("NumEdgeIDs = %d, want 2", g.NumEdgeIDs())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 || g.Degree(2) != 0 {
		t.Fatalf("degrees = %d,%d,%d; want 1,2,0", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestUndirectedEdgeSharesID(t *testing.T) {
	g := New(2)
	id := g.AddEdge(0, 1, 1)
	if got := g.Neighbors(0)[0].ID; got != id {
		t.Fatalf("forward arc ID = %d, want %d", got, id)
	}
	if got := g.Neighbors(1)[0].ID; got != id {
		t.Fatalf("reverse arc ID = %d, want %d", got, id)
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{1, 2, 3}
	if p.Hops() != 2 {
		t.Fatalf("Hops = %d, want 2", p.Hops())
	}
	if !p.Loopless() {
		t.Fatal("1-2-3 must be loopless")
	}
	if (Path{1, 2, 1}).Loopless() {
		t.Fatal("1-2-1 must not be loopless")
	}
	if !p.Equal(Path{1, 2, 3}) || p.Equal(Path{1, 2}) || p.Equal(Path{1, 2, 4}) {
		t.Fatal("Equal misbehaved")
	}
	if (Path{}).Hops() != 0 {
		t.Fatal("empty path hops must be 0")
	}
}

// TestLoopless pins both branches of Loopless: the pairwise scan for short
// paths (allocation-free) and the sorted copy for long ones, each with an
// early and a late repeat.
func TestLoopless(t *testing.T) {
	long := make(Path, 3*looplessScanMax)
	for i := range long {
		long[i] = 1000 - i
	}
	lateRepeat := append(append(Path{}, long...), long[1])
	cases := []struct {
		p    Path
		want bool
	}{
		{nil, true},
		{Path{7}, true},
		{Path{1, 2, 1}, false},
		{Path{3, 3}, false},
		{Path{1, 2, 3, 4, 5, 6, 7, 8, 9, 1}, false},
		{long[:looplessScanMax], true},
		{append(append(Path{}, long[:looplessScanMax-1]...), long[3]), false},
		{long, true},
		{lateRepeat, false},
		{append(Path{long[len(long)-1]}, long...), false},
	}
	for _, c := range cases {
		if got := c.p.Loopless(); got != c.want {
			t.Fatalf("Loopless(len %d) = %v, want %v", len(c.p), got, c.want)
		}
	}
	short := long[:looplessScanMax]
	if allocs := testing.AllocsPerRun(100, func() { short.Loopless() }); allocs != 0 {
		t.Fatalf("Loopless on a %d-node path allocates %v times", len(short), allocs)
	}
	if !sort.SliceIsSorted(long, func(i, j int) bool { return long[i] > long[j] }) {
		t.Fatal("Loopless must not reorder its receiver")
	}
}

// randomGraph builds a random connected-ish undirected graph for oracles.
func randomGraph(rng *rand.Rand, n int, extraEdges int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		g.AddEdge(u, v, 1+rng.Float64()*9)
	}
	for i := 0; i < extraEdges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, 1+rng.Float64()*9)
		}
	}
	return g
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	g.adj[0][0].To = 5
	if err := g.Validate(); err == nil {
		t.Fatal("Validate must reject out-of-range endpoint")
	}
	h := New(2)
	h.AddEdge(0, 1, 1)
	h.adj[0][0].ID = 3
	if err := h.Validate(); err == nil {
		t.Fatal("Validate must reject out-of-range edge ID")
	}
}

// TestUndirectedFlag: New and AddEdge leave a graph undirected, AddArc
// makes it directed and Reset makes it undirected again. distancesTo, which trusts the flag, must give one-way arcs their
// reversed-arc distances (a search from t over the arcs as stored would
// read 0→1→2 backwards), and Yen over them must still match the reference.
func TestUndirectedFlag(t *testing.T) {
	g := New(3)
	if !g.undirected {
		t.Fatal("New: graph not undirected")
	}
	g.AddEdge(0, 1, 1)
	if !g.undirected {
		t.Fatal("AddEdge cleared the undirected flag")
	}
	g.AddArc(1, 2, 1)
	g.AddArc(2, 0, 5)
	if g.undirected {
		t.Fatal("AddArc did not clear the undirected flag")
	}
	var sc DijkstraScratch
	if h := sc.distancesTo(g, 2); !reflect.DeepEqual(h, []float64{2, 1, 0}) {
		t.Fatalf("distances to 2 over one-way arcs = %v, want [2 1 0]", h)
	}
	if got, want := YenKShortest(g, 0, 2, 3, DijkstraOptions{}), yenReference(g, 0, 2, 3, DijkstraOptions{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("Yen over one-way arcs = %v, reference %v", got, want)
	}
	g.Reset()
	if !g.undirected {
		t.Fatal("Reset did not restore the undirected flag")
	}
	g.AddEdge(0, 2, 4)
	if h := sc.distancesTo(g, 2); !reflect.DeepEqual(h, []float64{4, Unreachable, 0}) {
		t.Fatalf("distances to 2 after Reset = %v, want [4 Unreachable 0]", h)
	}
}
