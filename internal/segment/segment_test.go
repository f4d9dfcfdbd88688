package segment

import (
	"math"
	"reflect"
	"slices"
	"strings"
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
	if len(s.For(topo.MotivS1, topo.MotivR1)) == 0 {
		t.Fatal("missing link candidate s1-r1")
	}
	// The famous 2-hop segment s2-r1-d2.
	c := s.For(topo.MotivS2, topo.MotivD2)[0]
	if c == nil {
		t.Fatal("missing segment s2..d2")
	}
	if c.Prob != 0.8 || c.Hops() != 2 {
		t.Fatalf("s2..d2 best candidate = %+v, want 2 hops prob 0.8", c)
	}
	// r1..d1 via r2 with probability 0.85.
	c = s.For(topo.MotivR1, topo.MotivD1)[0]
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
	if len(s.For(topo.MotivS2, topo.MotivD2)) != 0 {
		t.Fatal("2-hop segment present despite hop cap 1")
	}
}

func TestBuildMinProbPrunes(t *testing.T) {
	opts := DefaultOptions()
	opts.MinProb = 0.82 // removes the 0.8 segment but keeps 0.85 and 0.9
	s, _, _ := motivationSet(t, opts)
	if got := s.For(topo.MotivS2, topo.MotivD2); len(got) != 0 && got[0].Prob < 0.82 {
		t.Fatalf("pruned candidate survived: %+v", got)
	}
	if len(s.For(topo.MotivS1, topo.MotivR1)) == 0 {
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
	if len(s.For(pairs[1].S, pairs[1].D)) == 0 {
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

// TestCandidateLengthAndPairID: every built candidate carries the fibre
// length its probability came from, bit for bit PathLengthKM, its decay
// factor, bit for bit exp(−PathLengthKM/DecayKM), and the segment-graph
// edge of its endpoint pair as PairID.
func TestCandidateLengthAndPairID(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.Nodes = 60
	net, err := topo.Generate(cfg, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(net, topo.ChooseSDPairs(net, 8, xrand.New(10)), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for pk, list := range s.ByPair {
		for _, c := range list {
			if l := net.PathLengthKM(c.Path); c.LengthKM != l {
				t.Fatalf("candidate %v: LengthKM %v, PathLengthKM %v", c.Path, c.LengthKM, l)
			}
			if d := math.Exp(-net.PathLengthKM(c.Path) / DecayKM); c.Decay != d {
				t.Fatalf("candidate %v: Decay %v, exp(−L/DecayKM) %v", c.Path, c.Decay, d)
			}
			if s.EdgePairs[c.PairID] != pk || s.EdgeOf[pk] != c.PairID {
				t.Fatalf("candidate %v of %+v has PairID %d (edge of %+v)", c.Path, pk, c.PairID, s.EdgePairs[c.PairID])
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
}

// TestKeyLessMatchesKey pins the allocation-free candidate tie-break to
// the string comparison it replaced, topo.Key(a) < topo.Key(b), over
// random paths: node IDs up to 2^20 (Key's bytes are little-endian, so
// the order is not numeric past 255), either orientation, shared
// prefixes and equal paths.
func TestKeyLessMatchesKey(t *testing.T) {
	rng := xrand.New(3)
	randPath := func() graph.Path {
		p := make(graph.Path, 2+rng.Intn(4))
		for i := range p {
			switch rng.Intn(3) {
			case 0:
				p[i] = rng.Intn(4)
			case 1:
				p[i] = rng.Intn(1 << 10)
			default:
				p[i] = rng.Intn(1 << 20)
			}
		}
		return p
	}
	for trial := 0; trial < 20000; trial++ {
		a := randPath()
		var b graph.Path
		switch rng.Intn(4) {
		case 0:
			b = randPath()
		case 1: // a reversed
			for i := len(a) - 1; i >= 0; i-- {
				b = append(b, a[i])
			}
		case 2: // a prefix of a (or all of it), possibly extended
			b = append(b, a[:1+rng.Intn(len(a))]...)
			for rng.Intn(2) == 0 {
				b = append(b, rng.Intn(1<<20))
			}
		default: // one node changed
			b = append(b, a...)
			b[rng.Intn(len(b))] ^= 1 << (rng.Intn(3) * 8)
		}
		for _, pq := range [][2]graph.Path{{a, b}, {b, a}} {
			want := topo.Key(pq[0]) < topo.Key(pq[1])
			if got := KeyLess(pq[0], pq[1]); got != want {
				t.Fatalf("KeyLess(%v, %v) = %v, string keys say %v", pq[0], pq[1], got, want)
			}
		}
	}
}

// TestCandidateIDOrder pins the candidate numbering to the physical
// phase's order: on random networks of up to 700 nodes (so keys span
// three bytes of node ID and their order is not numeric), with SD pairs
// among the high node IDs given in either orientation, and under the
// SEE, link-only and whole-path options, the IDs are 0..n−1 and sorting
// the candidates by (U, V, topo.Key(Path)) lists them in ID order.
func TestCandidateIDOrder(t *testing.T) {
	high, reversed := 0, 0
	for trial := 0; trial < 6; trial++ {
		rng := xrand.New(int64(40 + trial))
		cfg := topo.DefaultConfig()
		cfg.Nodes = 300 + rng.Intn(400)
		net, err := topo.Generate(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		var pairs []topo.SDPair
		for len(pairs) < 6 {
			s, d := 200+rng.Intn(cfg.Nodes-200), 200+rng.Intn(cfg.Nodes-200)
			if s != d {
				pairs = append(pairs, topo.SDPair{S: s, D: d})
			}
		}
		links := DefaultOptions()
		links.MaxSegmentHops = 1
		whole := DefaultOptions()
		whole.FullPathOnly = true
		for _, opts := range []Options{DefaultOptions(), links, whole} {
			s, err := Build(net, pairs, opts)
			if err != nil {
				t.Fatal(err)
			}
			var cands []*Candidate
			for _, list := range s.ByEdge {
				cands = append(cands, list...)
			}
			if len(cands) != s.NumCandidates() {
				t.Fatalf("ByEdge lists %d candidates, the set has %d", len(cands), s.NumCandidates())
			}
			slices.SortFunc(cands, func(a, b *Candidate) int {
				if a.U() != b.U() {
					return a.U() - b.U()
				}
				if a.V() != b.V() {
					return a.V() - b.V()
				}
				return strings.Compare(topo.Key(a.Path), topo.Key(b.Path))
			})
			for i, c := range cands {
				if c.ID != i {
					t.Fatalf("trial %d: candidate %v has ID %d, position %d in (U, V, Key) order", trial, c.Path, c.ID, i)
				}
				if c.V() >= 256 {
					high++
				}
				if c.Path[0] > c.Path[len(c.Path)-1] {
					reversed++
				}
			}
		}
	}
	if high == 0 || reversed == 0 {
		t.Fatalf("no candidate reached node 256 (%d) or ran high to low (%d)", high, reversed)
	}
}

func TestAttemptFactorMatchesDefinition(t *testing.T) {
	p, qu, qv := 0.5, 0.81, 0.64
	net := &topo.Network{SwapProb: []float64{qu, 1, qv}}
	c := &Candidate{Path: graph.Path{0, 1, 2}, Prob: p}
	if got, want := AttemptFactor(net, c), 1/(p*math.Sqrt(qu*qv)); got != want {
		t.Errorf("AttemptFactor = %v, want %v", got, want)
	}
	c.Prob = 1e-13
	if got := AttemptFactor(net, c); !math.IsInf(got, 1) {
		t.Errorf("AttemptFactor of a dead realization = %v, want +Inf", got)
	}
}

// TestBuildWorkersIdentical: per-pair Yen enumeration on four workers
// builds the serial set, candidate for candidate (run under -race by make
// verify).
func TestBuildWorkersIdentical(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.Nodes = 100
	net, err := topo.Generate(cfg, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 12, xrand.New(22))
	links := DefaultOptions()
	links.MaxSegmentHops = 1
	whole := DefaultOptions()
	whole.FullPathOnly = true
	for _, opts := range []Options{DefaultOptions(), links, whole} {
		opts.Workers = 1
		serial, err := Build(net, pairs, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = 4
		parallel, err := Build(net, pairs, opts)
		if err != nil {
			t.Fatal(err)
		}
		parallel.opts.Workers = 1 // the one field allowed to differ
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("options %+v: the 4-worker set differs from the serial one", opts)
		}
	}
}
