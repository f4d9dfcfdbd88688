package segment

import (
	"slices"
	"testing"

	"see/internal/graph"
	"see/internal/topo"
	"see/internal/xrand"
)

func motivationSet(t *testing.T, opts Options) (*Set, *topo.Network, []topo.SDPair) {
	t.Helper()
	net, pairs := topo.Motivation()
	s, err := Build(net, pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, net, pairs
}

func TestBuildMotivationContainsKeySegments(t *testing.T) {
	s, _, _ := motivationSet(t, DefaultOptions())
	// Single links along SD paths must be present.
	if s.Best(topo.MotivS1, topo.MotivR1) == nil {
		t.Fatal("missing link candidate s1-r1")
	}
	// The famous 2-hop segment s2-r1-d2.
	c := s.Best(topo.MotivS2, topo.MotivD2)
	if c == nil {
		t.Fatal("missing segment s2..d2")
	}
	if c.Prob != 0.8 || c.Hops() != 2 {
		t.Fatalf("s2..d2 best candidate = %+v, want 2 hops prob 0.8", c)
	}
	// r1..d1 via r2 with probability 0.85.
	c = s.Best(topo.MotivR1, topo.MotivD1)
	if c == nil || c.Prob != 0.85 {
		t.Fatalf("r1..d1 best candidate = %+v, want prob 0.85", c)
	}
}

func TestBuildHopCap(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxSegmentHops = 1
	s, _, _ := motivationSet(t, opts)
	for pk, list := range s.ByPair {
		for _, c := range list {
			if c.Hops() != 1 {
				t.Fatalf("hop cap 1 violated for %+v: %v", pk, c.Path)
			}
		}
	}
	// s2..d2 requires 2 hops, so it must be absent.
	if s.Best(topo.MotivS2, topo.MotivD2) != nil {
		t.Fatal("2-hop segment present despite hop cap 1")
	}
}

func TestBuildMinProbPrunes(t *testing.T) {
	opts := DefaultOptions()
	opts.MinProb = 0.82 // removes the 0.8 segment but keeps 0.85 and 0.9
	s, _, _ := motivationSet(t, opts)
	if got := s.Best(topo.MotivS2, topo.MotivD2); got != nil && got.Prob < 0.82 {
		t.Fatalf("pruned candidate survived: %+v", got)
	}
	if s.Best(topo.MotivS1, topo.MotivR1) == nil {
		t.Fatal("high-probability link wrongly pruned")
	}
}

func TestBuildFullPathOnly(t *testing.T) {
	opts := DefaultOptions()
	opts.FullPathOnly = true
	s, _, pairs := motivationSet(t, opts)
	for pk, list := range s.ByPair {
		want1 := MakePairKey(pairs[0].S, pairs[0].D)
		want2 := MakePairKey(pairs[1].S, pairs[1].D)
		if pk != want1 && pk != want2 {
			t.Fatalf("full-path-only produced non-SD segment %+v", pk)
		}
		for _, c := range list {
			if c.Path[0] != pk.U && c.Path[0] != pk.V {
				t.Fatalf("candidate endpoints wrong: %v", c.Path)
			}
		}
	}
	if s.Best(pairs[1].S, pairs[1].D) == nil {
		t.Fatal("missing full-path candidate for pair 2")
	}
}

func TestCandidatesSortedAndTrimmed(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxCandidatesPerPair = 2
	s, _, _ := motivationSet(t, opts)
	for pk, list := range s.ByPair {
		if len(list) > 2 {
			t.Fatalf("pair %+v kept %d candidates, cap is 2", pk, len(list))
		}
		for i := 1; i < len(list); i++ {
			if list[i].Prob > list[i-1].Prob {
				t.Fatalf("pair %+v candidates not sorted by prob", pk)
			}
		}
	}
}

func TestSegGraphConsistent(t *testing.T) {
	s, _, _ := motivationSet(t, DefaultOptions())
	if s.SegGraph.N() != s.Net.NumNodes() {
		t.Fatal("segment graph node count mismatch")
	}
	if len(s.EdgePairs) != len(s.ByPair) {
		t.Fatalf("edge pairs %d != pair groups %d", len(s.EdgePairs), len(s.ByPair))
	}
	for pk, id := range s.EdgeOf {
		if s.EdgePairs[id] != pk {
			t.Fatalf("EdgeOf/EdgePairs inconsistent for %+v", pk)
		}
		if !slices.Equal(s.ByEdge[id], s.ByPair[pk]) {
			t.Fatalf("ByEdge[%d] differs from ByPair[%+v]", id, pk)
		}
	}
	if len(s.ByEdge) != len(s.EdgePairs) {
		t.Fatalf("ByEdge has %d lists for %d edges", len(s.ByEdge), len(s.EdgePairs))
	}
}

func TestCandidateInvariants(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.Nodes = 60
	net, err := topo.Generate(cfg, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 8, xrand.New(10))
	s, err := Build(net, pairs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCandidates() == 0 {
		t.Fatal("no candidates on a connected 60-node network")
	}
	for pk, list := range s.ByPair {
		for _, c := range list {
			if !c.Path.Loopless() {
				t.Fatalf("loopy candidate %v", c.Path)
			}
			if c.Hops() > DefaultOptions().MaxSegmentHops {
				t.Fatalf("hop cap violated: %v", c.Path)
			}
			if c.Prob < DefaultOptions().MinProb || c.Prob > 1 {
				t.Fatalf("prob out of range: %v", c.Prob)
			}
			if len(c.EdgeIDs) != c.Hops() {
				t.Fatalf("edge IDs %d != hops %d", len(c.EdgeIDs), c.Hops())
			}
			if MakePairKey(c.Path[0], c.Path[len(c.Path)-1]) != pk {
				t.Fatalf("candidate endpoints %v filed under %+v", c.Path, pk)
			}
		}
	}
	// Every SD pair should be connected in the segment graph.
	for i, sd := range pairs {
		hops := graph.BFSHops(s.SegGraph, sd.S)
		if hops[sd.D] == -1 {
			t.Fatalf("SD pair %d (%+v) unroutable in segment graph", i, sd)
		}
	}
	// UsedLinks/UsedEndpoints must cover every candidate.
	links := map[int]struct{}{}
	for _, id := range s.UsedLinks() {
		links[id] = struct{}{}
	}
	ends := map[int]struct{}{}
	for _, u := range s.UsedEndpoints() {
		ends[u] = struct{}{}
	}
	for _, list := range s.ByPair {
		for _, c := range list {
			for _, id := range c.EdgeIDs {
				if _, ok := links[id]; !ok {
					t.Fatalf("link %d missing from UsedLinks", id)
				}
			}
			if _, ok := ends[c.Path[0]]; !ok {
				t.Fatal("endpoint missing from UsedEndpoints")
			}
			if _, ok := ends[c.Path[len(c.Path)-1]]; !ok {
				t.Fatal("endpoint missing from UsedEndpoints")
			}
		}
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	net, _ := topo.Motivation()
	if _, err := Build(nil, nil, DefaultOptions()); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := Build(net, []topo.SDPair{{S: 0, D: 0}}, DefaultOptions()); err == nil {
		t.Fatal("degenerate pair accepted")
	}
	if _, err := Build(net, []topo.SDPair{{S: 0, D: 99}}, DefaultOptions()); err == nil {
		t.Fatal("out-of-range pair accepted")
	}
}

func TestPairKey(t *testing.T) {
	pk := MakePairKey(7, 3)
	if pk.U != 3 || pk.V != 7 {
		t.Fatalf("MakePairKey not normalized: %+v", pk)
	}
	if o, ok := pk.Other(3); !ok || o != 7 {
		t.Fatal("Other(3) wrong")
	}
	if o, ok := pk.Other(7); !ok || o != 3 {
		t.Fatal("Other(7) wrong")
	}
	if _, ok := pk.Other(5); ok {
		t.Fatal("Other(non-endpoint) must be false")
	}
}
