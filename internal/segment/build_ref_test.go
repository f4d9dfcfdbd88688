package segment

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"see/internal/graph"
	"see/internal/topo"
	"see/internal/xrand"
)

// buildReference is Build as it enumerated candidates before the one-pass
// sub-segment loop: every sub-segment of every Yen path offered on its
// own, its probability and length from topo.Network.SegmentProbLength,
// its link IDs from pathEdgeIDs, and its route copied.
func buildReference(net *topo.Network, pairs []topo.SDPair, opts Options) *Set {
	opts = opts.withDefaults()
	s := &Set{
		Net:     net,
		Pairs:   append([]topo.SDPair(nil), pairs...),
		ByPair:  make(map[PairKey][]*Candidate),
		SDPaths: make([][]graph.Path, len(pairs)),
		EdgeOf:  make(map[PairKey]int),
		opts:    opts,
	}
	for i, sd := range pairs {
		s.SDPaths[i] = graph.YenKShortest(net.G, sd.S, sd.D, opts.KPaths, graph.DijkstraOptions{})
	}
	seen := &pathSet{head: make(map[uint64]int32)}
	add := func(p graph.Path, skipMinProb bool) {
		if len(p) < 2 || !seen.add(p) {
			return
		}
		prob, length := net.SegmentProbLength(p)
		if prob <= 0 || !skipMinProb && prob < opts.MinProb {
			return
		}
		ids, err := pathEdgeIDs(net, p)
		if err != nil {
			return
		}
		c := &Candidate{
			Path:     append(graph.Path(nil), p...),
			EdgeIDs:  ids,
			Prob:     prob,
			LengthKM: length,
			Decay:    math.Exp(-length / DecayKM),
		}
		pk := MakePairKey(c.Path[0], c.Path[len(c.Path)-1])
		s.ByPair[pk] = append(s.ByPair[pk], c)
	}
	for _, paths := range s.SDPaths {
		for _, p := range paths {
			if opts.FullPathOnly {
				add(p, true)
				continue
			}
			for a := 0; a < len(p); a++ {
				for b := a + 1; b < len(p) && b-a <= opts.MaxSegmentHops; b++ {
					add(p[a:b+1], false)
				}
			}
		}
	}
	s.trimAndSort()
	s.buildSegGraph()
	return s
}

// TestBuildMatchesSubpathReference: Build's one-pass enumeration yields
// buildReference's set, candidate for candidate, under every row of the
// engines' enumeration table (SEE's, REPS's link-only and E2E's
// whole-path), the default options and a 2-hop cap: on random networks of
// 50 to 400 nodes with parallel links (where a hop takes its first
// shortest link), the same ByEdge lists in the same order, and per
// candidate the same route, ID, PairID, link IDs and the bits of Prob,
// LengthKM and Decay.
func TestBuildMatchesSubpathReference(t *testing.T) {
	rows := []Options{
		{KPaths: 5, MaxSegmentHops: 10, MinProb: 0.05, MaxCandidatesPerPair: 3},
		{KPaths: 5, MaxSegmentHops: 1, MaxCandidatesPerPair: 3},
		{KPaths: 1, MaxCandidatesPerPair: 3, FullPathOnly: true},
		DefaultOptions(),
		{KPaths: 3, MaxSegmentHops: 2, MinProb: 0.2},
	}
	candidates := 0
	for trial := 0; trial < 8; trial++ {
		rng := xrand.New(int64(70 + trial))
		cfg := topo.DefaultConfig()
		cfg.Nodes = 50 + rng.Intn(350)
		net, err := topo.Generate(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if trial%2 == 1 {
			// A parallel link beside some links, as long or longer, so
			// the first shortest one must win every tie.
			for id, n := 0, net.NumLinks(); id < n; id += 7 {
				u, v := linkEnds(net, id)
				net.G.AddEdge(u, v, net.LinkLen[id])
				net.LinkLen = append(net.LinkLen, net.LinkLen[id]*float64(1+id%2))
				net.Channels = append(net.Channels, net.Channels[id])
			}
		}
		pairs := topo.ChooseSDPairs(net, 2+rng.Intn(10), rng)
		for r, opts := range rows {
			got, err := Build(net, pairs, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := buildReference(net, pairs, opts)
			if len(got.ByEdge) != len(want.ByEdge) {
				t.Fatalf("trial %d row %d: %d segment edges, reference %d", trial, r, len(got.ByEdge), len(want.ByEdge))
			}
			for id := range want.ByEdge {
				g, w := got.ByEdge[id], want.ByEdge[id]
				if got.EdgePairs[id] != want.EdgePairs[id] || len(g) != len(w) {
					t.Fatalf("trial %d row %d edge %d: pair %v with %d candidates, reference %v with %d",
						trial, r, id, got.EdgePairs[id], len(g), want.EdgePairs[id], len(w))
				}
				for k := range w {
					if !sameCandidate(g[k], w[k]) {
						t.Fatalf("trial %d row %d edge %d candidate %d: %+v, reference %+v", trial, r, id, k, *g[k], *w[k])
					}
					candidates++
				}
			}
		}
	}
	t.Logf("%d candidates compared", candidates)
}

// pathEdgeIDs is topo.Network.PathEdgeIDs as Build called it: the edge IDs
// along a physical path (the first shortest parallel link per hop), or an
// error for a non-adjacent hop.
func pathEdgeIDs(net *topo.Network, p graph.Path) ([]int, error) {
	ids := make([]int, 0, len(p))
	for i := 0; i+1 < len(p); i++ {
		bestID := -1
		best := math.Inf(1)
		for _, e := range net.G.Neighbors(p[i]) {
			if e.To == p[i+1] && net.LinkLen[e.ID] < best {
				best = net.LinkLen[e.ID]
				bestID = e.ID
			}
		}
		if bestID == -1 {
			return nil, fmt.Errorf("nodes %d and %d are not adjacent", p[i], p[i+1])
		}
		ids = append(ids, bestID)
	}
	return ids, nil
}

// linkEnds returns the endpoints of physical link id.
func linkEnds(net *topo.Network, id int) (u, v int) {
	for u := 0; u < net.NumNodes(); u++ {
		for _, e := range net.G.Neighbors(u) {
			if e.ID == id {
				return u, e.To
			}
		}
	}
	panic("no such link")
}

// sameCandidate compares every field, the floats by their bits.
func sameCandidate(a, b *Candidate) bool {
	return a.Path.Equal(b.Path) && slices.Equal(a.EdgeIDs, b.EdgeIDs) && a.ID == b.ID && a.PairID == b.PairID &&
		math.Float64bits(a.Prob) == math.Float64bits(b.Prob) &&
		math.Float64bits(a.LengthKM) == math.Float64bits(b.LengthKM) &&
		math.Float64bits(a.Decay) == math.Float64bits(b.Decay)
}
