package qnet

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"see/internal/graph"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// ledgerLine returns a ledger over the line 0–1–2–3 with channels 3, 5, 4
// on its links and memory 6, 0, 1, 2 at its nodes, and the candidate over
// the whole line: interior nodes 1 and 2 switch all-optically.
func ledgerLine(t *testing.T) (*Ledger, *segment.Candidate) {
	t.Helper()
	net := &topo.Network{G: graph.New(4), SwapProb: []float64{0.9, 0.9, 0.9, 0.9}}
	var ids []int
	for u := 0; u < 3; u++ {
		ids = append(ids, net.G.AddEdge(u, u+1, 1))
	}
	l := NewLedgerWithCapacities(net, []int{3, 5, 4}, []int{6, 0, 1, 2})
	return l, &segment.Candidate{Path: graph.Path{0, 1, 2, 3}, EdgeIDs: ids, Prob: 0.5}
}

// freeSnapshot copies the ledger's free tables.
func freeSnapshot(l *Ledger) (channels, memory []int) {
	ch, mem := l.Free()
	return slices.Clone(ch), slices.Clone(mem)
}

// requireFree fails unless the ledger's free tables equal the snapshot.
func requireFree(t *testing.T, l *Ledger, channels, memory []int, what string) {
	t.Helper()
	ch, mem := l.Free()
	if !slices.Equal(ch, channels) || !slices.Equal(mem, memory) {
		t.Fatalf("%s: free = %v / %v, want %v / %v", what, ch, mem, channels, memory)
	}
}

func TestLedgerWidth(t *testing.T) {
	l, c := ledgerLine(t)
	for _, tc := range []struct{ want, got int }{{0, 0}, {1, 1}, {2, 2}, {100, 2}} {
		if got := l.Width(c, tc.want); got != tc.got {
			t.Errorf("Width(c, %d) = %d, want %d", tc.want, got, tc.got)
		}
	}
	if err := l.Reserve(c, 1); err != nil {
		t.Fatal(err)
	}
	if got := l.Width(c, 100); got != 1 {
		t.Errorf("Width after one attempt = %d, want 1 (endpoint 3 has one unit left)", got)
	}
	if !l.CanReserve(c) {
		t.Error("CanReserve = false with Width 1")
	}
	if err := l.Reserve(c, 1); err != nil {
		t.Fatal(err)
	}
	if got := l.Width(c, 100); got != 0 || l.CanReserve(c) {
		t.Errorf("exhausted endpoint: Width = %d, CanReserve = %v; want 0, false", got, l.CanReserve(c))
	}
}

// TestLedgerChargesEndpointsOnly pins the paper's resource rule: n
// attempts take n channels on every link of the route and n memory units
// at each endpoint, and interior nodes are never charged — here node 1
// has no memory at all and node 2 keeps its one unit.
func TestLedgerChargesEndpointsOnly(t *testing.T) {
	l, c := ledgerLine(t)
	if err := l.Reserve(c, 2); err != nil {
		t.Fatal(err)
	}
	requireFree(t, l, []int{1, 3, 2}, []int{4, 0, 1, 0}, "after Reserve(c, 2)")
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(c, 2); err != nil {
		t.Fatal(err)
	}
	requireFree(t, l, []int{3, 5, 4}, []int{6, 0, 1, 2}, "after Release(c, 2)")
}

// TestLedgerFailedCallsChangeNothing: reserving beyond Width, releasing
// beyond capacity and negative counts all fail and leave Free unchanged.
func TestLedgerFailedCallsChangeNothing(t *testing.T) {
	l, c := ledgerLine(t)
	if err := l.Reserve(c, 1); err != nil {
		t.Fatal(err)
	}
	ch, mem := freeSnapshot(l)
	// The middle link has a channel to spare, but its endpoints' memory is
	// full: only the memory check can refuse this release.
	middle := &segment.Candidate{Path: graph.Path{1, 2}, EdgeIDs: c.EdgeIDs[1:2]}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"Reserve beyond Width", func() error { return l.Reserve(c, l.Width(c, 100)+1) }},
		{"Reserve negative", func() error { return l.Reserve(c, -1) }},
		{"Release beyond capacity", func() error { return l.Release(c, 2) }},
		{"Release beyond memory capacity", func() error { return l.Release(middle, 1) }},
		{"Release negative", func() error { return l.Release(c, -1) }},
	} {
		if err := tc.call(); err == nil {
			t.Errorf("%s succeeded", tc.name)
		}
		requireFree(t, l, ch, mem, tc.name)
	}
}

// TestLedgerCanReserveMatchesWidth drives random reservations and releases
// over the motivation fixture's candidates: CanReserve is always
// Width(c, 1) == 1, a reservation within Width always succeeds, TryReserve
// reserves one attempt exactly when CanReserve holds (and changes nothing
// otherwise), and the invariants hold throughout.
func TestLedgerCanReserveMatchesWidth(t *testing.T) {
	set, net := motivationSet(t)
	var cands []*segment.Candidate
	for _, list := range set.ByEdge {
		cands = append(cands, list...)
	}
	l := NewLedger(net)
	held := map[*segment.Candidate]int{}
	rng := xrand.New(3)
	for step := 0; step < 2000; step++ {
		c := cands[rng.Intn(len(cands))]
		if l.CanReserve(c) != (l.Width(c, 1) == 1) {
			t.Fatalf("step %d: CanReserve %v, Width(c, 1) %d", step, l.CanReserve(c), l.Width(c, 1))
		}
		switch rng.Intn(3) {
		case 0:
			can := l.CanReserve(c)
			ch, mem := l.Free()
			ch, mem = slices.Clone(ch), slices.Clone(mem)
			if can {
				for _, e := range c.EdgeIDs {
					ch[e]--
				}
				mem[c.Path[0]]--
				mem[c.Path[len(c.Path)-1]]--
			}
			if got := l.TryReserve(c); got != can {
				t.Fatalf("step %d: TryReserve %v, CanReserve %v", step, got, can)
			}
			requireFree(t, l, ch, mem, fmt.Sprintf("step %d: TryReserve", step))
			if can {
				held[c]++
			}
		case 1:
			n := rng.Intn(l.Width(c, 3) + 1)
			if err := l.Reserve(c, n); err != nil {
				t.Fatalf("step %d: Reserve(c, %d) within Width: %v", step, n, err)
			}
			held[c] += n
		default:
			if n := held[c]; n > 0 {
				if err := l.Release(c, n); err != nil {
					t.Fatalf("step %d: Release(c, %d) of held attempts: %v", step, n, err)
				}
				held[c] = 0
			}
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestLedgerCheapest(t *testing.T) {
	net := &topo.Network{G: graph.New(3), SwapProb: []float64{1, 0.25, 1}}
	e01 := net.G.AddEdge(0, 1, 1)
	e12 := net.G.AddEdge(1, 2, 1)
	e02 := net.G.AddEdge(0, 2, 1)
	l := NewLedgerWithCapacities(net, []int{1, 1, 1}, []int{2, 2, 2})
	direct := &segment.Candidate{Path: graph.Path{0, 2}, EdgeIDs: []int{e02}, Prob: 0.5}
	tie := &segment.Candidate{Path: graph.Path{0, 1, 2}, EdgeIDs: []int{e01, e12}, Prob: 0.5}
	worse := &segment.Candidate{Path: graph.Path{0, 1, 2}, EdgeIDs: []int{e01, e12}, Prob: 0.25}
	dead := &segment.Candidate{Path: graph.Path{0, 2}, EdgeIDs: []int{e02}, Prob: 0}

	if got, cost := l.Cheapest(net, []*segment.Candidate{dead, worse, direct, tie}, nil); got != direct || cost != 2 {
		t.Errorf("Cheapest = %v at %v, want the earlier of the tied realizations at 2", got, cost)
	}
	if got, _ := l.Cheapest(net, []*segment.Candidate{worse, direct, tie}, direct); got != tie {
		t.Errorf("Cheapest skipping direct = %v, want its tie", got)
	}
	if err := l.Reserve(direct, 1); err != nil {
		t.Fatal(err)
	}
	if got, _ := l.Cheapest(net, []*segment.Candidate{direct, worse}, nil); got != worse {
		t.Errorf("Cheapest with direct's link full = %v, want the fitting realization", got)
	}
	if got, cost := l.Cheapest(net, []*segment.Candidate{direct, dead}, nil); got != nil || !math.IsInf(cost, 1) {
		t.Errorf("Cheapest with nothing fitting = %v at %v, want nil at +Inf", got, cost)
	}
}
