package qnet

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"see/internal/graph"
	"see/internal/segment"
	"see/internal/topo"
)

func TestSegmentFidelityLimits(t *testing.T) {
	m := DefaultFidelityModel()
	if got := m.SegmentFidelity(0); math.Abs(got-m.F0) > 1e-12 {
		t.Fatalf("zero-distance fidelity = %v, want F0 = %v", got, m.F0)
	}
	// Fidelity decays monotonically toward 1/4 (maximally mixed).
	prev := m.SegmentFidelity(0)
	for _, l := range []float64{100, 1000, 10000, 1e6, 1e9} {
		f := m.SegmentFidelity(l)
		if f > prev+1e-15 {
			t.Fatalf("fidelity increased with distance at %v km", l)
		}
		prev = f
	}
	if math.Abs(m.SegmentFidelity(1e12)-0.25) > 1e-6 {
		t.Fatalf("asymptotic fidelity = %v, want 0.25", m.SegmentFidelity(1e12))
	}
}

func TestSwapFidelityComposition(t *testing.T) {
	perfect := FidelityModel{F0: 1, DecayKM: math.Inf(1), SwapF0: 1}
	// Perfect swap of perfect pairs stays perfect.
	if got := perfect.SwapFidelity(1, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect swap = %v", got)
	}
	// Swapping with a maximally mixed state yields maximally mixed.
	if got := perfect.SwapFidelity(1, 0.25); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("mixed swap = %v, want 0.25", got)
	}
	// Werner parameters multiply: symmetric and order-independent.
	m := DefaultFidelityModel()
	a, b, c := 0.95, 0.9, 0.85
	left := m.SwapFidelity(m.SwapFidelity(a, b), c)
	right := m.SwapFidelity(a, m.SwapFidelity(b, c))
	if math.Abs(left-right) > 1e-12 {
		t.Fatalf("swap composition not associative: %v vs %v", left, right)
	}
}

// Property: composed fidelity is within [1/4, min(f1, f2)] for valid
// Werner inputs.
func TestSwapFidelityRange(t *testing.T) {
	m := DefaultFidelityModel()
	f := func(a, b float64) bool {
		f1 := 0.25 + math.Mod(math.Abs(a), 0.75)
		f2 := 0.25 + math.Mod(math.Abs(b), 0.75)
		got := m.SwapFidelity(f1, f2)
		return got >= 0.25-1e-12 && got <= math.Min(f1, f2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestConnectionFidelity checks the delivered fidelity an established
// Connection records (PredictFidelity over its segments).
func TestConnectionFidelity(t *testing.T) {
	set, net := motivationSet(t)
	m := DefaultFidelityModel()

	// Single-segment (E2E-style) connection: fidelity is the segment's.
	cSeg := set.Best(topo.MotivS2, topo.MotivD2)
	direct := &Connection{
		Pair:     1,
		Nodes:    graph.Path{topo.MotivS2, topo.MotivD2},
		Segments: []*Segment{{A: cSeg.U(), B: cSeg.V(), Cand: cSeg}},
	}
	wantDirect := m.SegmentFidelity(net.PathLengthKM(cSeg.Path))
	if got := m.PredictFidelity(direct.Segments); math.Abs(got-wantDirect) > 1e-12 {
		t.Fatalf("direct fidelity = %v, want %v", got, wantDirect)
	}

	// Two-segment connection must be strictly worse than either segment
	// (an extra swap and more fibre).
	cl := set.Best(topo.MotivS1, topo.MotivR1)
	cs := set.Best(topo.MotivR1, topo.MotivD1)
	twoSeg := &Connection{
		Pair:  0,
		Nodes: graph.Path{topo.MotivS1, topo.MotivR1, topo.MotivD1},
		Segments: []*Segment{
			{A: cl.U(), B: cl.V(), Cand: cl},
			{A: cs.U(), B: cs.V(), Cand: cs},
		},
	}
	got := m.PredictFidelity(twoSeg.Segments)
	f1 := m.SegmentFidelity(net.PathLengthKM(cl.Path))
	f2 := m.SegmentFidelity(net.PathLengthKM(cs.Path))
	if got >= math.Min(f1, f2) {
		t.Fatalf("swapped fidelity %v not below min segment fidelity %v", got, math.Min(f1, f2))
	}
	if got < 0.25 {
		t.Fatalf("fidelity below maximally mixed: %v", got)
	}
	if m.PredictFidelity(nil) != 0 {
		t.Fatal("empty connection must have zero fidelity")
	}
}

// Werner parameter and fidelity are inverse affine maps of each other; the
// algebra below (floors, decay, swap composition) silently assumes the
// round-trip is exact.
func TestWernerFidelityRoundTrip(t *testing.T) {
	for _, f := range []float64{0.25, 0.3, 0.5, 0.75, 0.9, 0.99, 1} {
		if got := fidelityOf(wernerOf(f)); math.Abs(got-f) > 1e-12 {
			t.Errorf("fidelityOf(wernerOf(%v)) = %v", f, got)
		}
	}
	for _, w := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if got := wernerOf(fidelityOf(w)); math.Abs(got-w) > 1e-12 {
			t.Errorf("wernerOf(fidelityOf(%v)) = %v", w, got)
		}
	}
	// Endpoints: w=0 is maximally mixed (F=1/4), w=1 is a perfect pair.
	if got := fidelityOf(0); got != 0.25 {
		t.Errorf("fidelityOf(0) = %v, want 0.25", got)
	}
	if got := fidelityOf(1); got != 1 {
		t.Errorf("fidelityOf(1) = %v, want 1", got)
	}
}

// Swap composition is commutative in the Werner parameter — together with
// associativity (tested above) this is what makes delivered fidelity
// independent of the junction swap order, which the SwapOrderGreedy policy
// relies on.
func TestSwapFidelityCommutative(t *testing.T) {
	m := DefaultFidelityModel()
	f := func(a, b float64) bool {
		f1 := 0.25 + math.Mod(math.Abs(a), 0.75)
		f2 := 0.25 + math.Mod(math.Abs(b), 0.75)
		return math.Abs(m.SwapFidelity(f1, f2)-m.SwapFidelity(f2, f1)) <= 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// PredictFidelity must agree with the left-to-right pairwise fold for
// pristine segments, stay invariant under any permutation of the chain
// (swap-order independence), never exceed any single segment's fidelity,
// and decrease when a segment carries banked age decay. Randomized sweep
// over chain lengths, span lengths and decay scales, fixed seed. Each
// segment is realized over a segment.NewCandidate of one link of a line
// network with the span's length, so its decay is the candidate's stored
// factor, as in a slot.
func TestPredictFidelityProperties(t *testing.T) {
	m := DefaultFidelityModel()
	rng := rand.New(rand.NewSource(20220406))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		var spec strings.Builder
		for v := 0; v <= n; v++ {
			fmt.Fprintf(&spec, "node %d %d 0\n", v, 100*v)
		}
		for v := 0; v < n; v++ {
			fmt.Fprintf(&spec, "link %d %d %s\n", v, v+1, strconv.FormatFloat(rng.Float64()*4000, 'g', -1, 64))
		}
		net, err := topo.LoadEdgeList(strings.NewReader(spec.String()), topo.DefaultConfig(), 1)
		if err != nil {
			t.Fatal(err)
		}
		segs := make([]*Segment, n)
		for i := range segs {
			c, err := segment.NewCandidate(net, graph.Path{i, i + 1})
			if err != nil {
				t.Fatal(err)
			}
			segs[i] = &Segment{A: i, B: i + 1, Cand: c}
		}
		lengthOf := func(s *Segment) float64 { return net.PathLengthKM(s.Cand.Path) }

		got := m.PredictFidelity(segs)
		want := m.SegmentFidelity(lengthOf(segs[0]))
		for _, s := range segs[1:] {
			want = m.SwapFidelity(want, m.SegmentFidelity(lengthOf(s)))
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: PredictFidelity = %v, pairwise fold = %v", trial, got, want)
		}
		for _, s := range segs {
			if seg := m.SegmentFidelity(lengthOf(s)); got > seg+1e-12 {
				t.Fatalf("trial %d: composed fidelity %v exceeds segment fidelity %v", trial, got, seg)
			}
		}

		perm := rng.Perm(n)
		shuffled := make([]*Segment, n)
		for i, j := range perm {
			shuffled[i] = segs[j]
		}
		if shuf := m.PredictFidelity(shuffled); math.Abs(shuf-got) > 1e-12 {
			t.Fatalf("trial %d: permutation changed fidelity: %v vs %v", trial, shuf, got)
		}

		// Age decay on any one segment strictly degrades the chain.
		k := rng.Intn(n)
		segs[k].SetWernerScale(0.5 + rng.Float64()*0.4)
		if aged := m.PredictFidelity(segs); aged >= got {
			t.Fatalf("trial %d: aged chain fidelity %v not below pristine %v", trial, aged, got)
		}
		segs[k].SetWernerScale(1)
	}
}

// The core trade-off the extension exposes: over the same physical route,
// one long all-optical segment beats a chain of swapped links when swaps
// are imperfect, and loses when transmission decay dominates.
func TestFidelityTradeoff(t *testing.T) {
	const totalKM = 3000
	// Imperfect swaps, slow decay: the single segment wins.
	m := FidelityModel{F0: 0.99, DecayKM: 50000, SwapF0: 0.95}
	single := m.SegmentFidelity(totalKM)
	chain := m.SegmentFidelity(totalKM / 3)
	chain = m.SwapFidelity(chain, m.SegmentFidelity(totalKM/3))
	chain = m.SwapFidelity(chain, m.SegmentFidelity(totalKM/3))
	if single <= chain {
		t.Fatalf("slow decay: single %v should beat chain %v", single, chain)
	}
	// Perfect swaps, fast decay: fidelity is length-determined; chain and
	// single tie exactly (Werner parameters multiply over distance), so
	// with even infinitesimally imperfect links the chain's extra swap
	// scaling is the only difference. Verify the tie at SwapF0 = 1.
	m2 := FidelityModel{F0: 1, DecayKM: 1000, SwapF0: 1}
	single2 := m2.SegmentFidelity(totalKM)
	chain2 := m2.SwapFidelity(m2.SegmentFidelity(totalKM/2), m2.SegmentFidelity(totalKM/2))
	if math.Abs(single2-chain2) > 1e-12 {
		t.Fatalf("with perfect ops, distance alone must determine fidelity: %v vs %v", single2, chain2)
	}
}
