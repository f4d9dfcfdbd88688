package qnet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"see/internal/graph"
	"see/internal/segment"
	"see/internal/topo"
)

// over is a pristine segment whose candidate carries the transmission
// factor of l km of fibre at depolarization length decayKM.
func over(l, decayKM float64) *Segment {
	return &Segment{Cand: &segment.Candidate{Decay: math.Exp(-l / decayKM)}}
}

// of is a pristine segment of fidelity f under a model with F0 = 1.
func of(f float64) *Segment {
	return &Segment{Cand: &segment.Candidate{Decay: wernerOf(f)}}
}

// pristineFidelity is the fidelity of one fresh segment over l km at
// segment.DecayKM, computed from the Werner algebra directly.
func pristineFidelity(m FidelityModel, l float64) float64 {
	return fidelityOf(wernerOf(m.F0) * math.Exp(-l/segment.DecayKM))
}

func TestSegmentFidelityLimits(t *testing.T) {
	m := DefaultFidelityModel()
	one := func(l float64) float64 { return m.PredictFidelity([]*Segment{over(l, segment.DecayKM)}) }
	if got := one(0); math.Abs(got-m.F0) > 1e-12 {
		t.Fatalf("zero-distance fidelity = %v, want F0 = %v", got, m.F0)
	}
	// Fidelity decays monotonically toward 1/4 (maximally mixed).
	prev := one(0)
	for _, l := range []float64{100, 1000, 10000, 1e6, 1e9} {
		f := one(l)
		if f > prev+1e-15 {
			t.Fatalf("fidelity increased with distance at %v km", l)
		}
		prev = f
	}
	if math.Abs(one(1e12)-0.25) > 1e-6 {
		t.Fatalf("asymptotic fidelity = %v, want 0.25", one(1e12))
	}
}

func TestSwapFidelityComposition(t *testing.T) {
	perfect := FidelityModel{F0: 1, SwapF0: 1}
	// Perfect swap of perfect pairs stays perfect.
	if got := perfect.PredictFidelity([]*Segment{of(1), of(1)}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect swap = %v", got)
	}
	// Swapping with a maximally mixed state yields maximally mixed.
	if got := perfect.PredictFidelity([]*Segment{of(1), of(0.25)}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("mixed swap = %v, want 0.25", got)
	}
	// Composition is associative: a chain predicts what its two halves'
	// predictions, swapped together, predict.
	m := FidelityModel{F0: 1, SwapF0: 0.98}
	a, b, c := of(0.95), of(0.9), of(0.85)
	all := m.PredictFidelity([]*Segment{a, b, c})
	left := m.PredictFidelity([]*Segment{of(m.PredictFidelity([]*Segment{a, b})), c})
	right := m.PredictFidelity([]*Segment{a, of(m.PredictFidelity([]*Segment{b, c}))})
	if math.Abs(left-all) > 1e-12 || math.Abs(right-all) > 1e-12 {
		t.Fatalf("swap composition not associative: %v, %v vs %v", left, right, all)
	}
}

// Property: composed fidelity is within [1/4, min(f1, f2)] for valid
// Werner inputs.
func TestSwapFidelityRange(t *testing.T) {
	m := FidelityModel{F0: 1, SwapF0: 0.98}
	f := func(a, b float64) bool {
		f1 := 0.25 + math.Mod(math.Abs(a), 0.75)
		f2 := 0.25 + math.Mod(math.Abs(b), 0.75)
		got := m.PredictFidelity([]*Segment{of(f1), of(f2)})
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
	cSeg := set.For(topo.MotivS2, topo.MotivD2)[0]
	direct := &Connection{
		Pair:     1,
		Nodes:    graph.Path{topo.MotivS2, topo.MotivD2},
		Segments: []*Segment{{A: cSeg.U(), B: cSeg.V(), Cand: cSeg}},
	}
	wantDirect := pristineFidelity(m, net.PathLengthKM(cSeg.Path))
	if got := m.PredictFidelity(direct.Segments); math.Abs(got-wantDirect) > 1e-12 {
		t.Fatalf("direct fidelity = %v, want %v", got, wantDirect)
	}

	// Two-segment connection must be strictly worse than either segment
	// (an extra swap and more fibre).
	cl := set.For(topo.MotivS1, topo.MotivR1)[0]
	cs := set.For(topo.MotivR1, topo.MotivD1)[0]
	twoSeg := &Connection{
		Pair:  0,
		Nodes: graph.Path{topo.MotivS1, topo.MotivR1, topo.MotivD1},
		Segments: []*Segment{
			{A: cl.U(), B: cl.V(), Cand: cl},
			{A: cs.U(), B: cs.V(), Cand: cs},
		},
	}
	got := m.PredictFidelity(twoSeg.Segments)
	f1 := pristineFidelity(m, net.PathLengthKM(cl.Path))
	f2 := pristineFidelity(m, net.PathLengthKM(cs.Path))
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
	m := FidelityModel{F0: 1, SwapF0: 0.98}
	f := func(a, b float64) bool {
		f1 := 0.25 + math.Mod(math.Abs(a), 0.75)
		f2 := 0.25 + math.Mod(math.Abs(b), 0.75)
		return math.Abs(m.PredictFidelity([]*Segment{of(f1), of(f2)})-m.PredictFidelity([]*Segment{of(f2), of(f1)})) <= 1e-12
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
// segment's candidate carries its span's decay factor, as in a slot.
func TestPredictFidelityProperties(t *testing.T) {
	m := DefaultFidelityModel()
	rng := rand.New(rand.NewSource(20220406))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		segs := make([]*Segment, n)
		spans := make([]float64, n)
		for i := range segs {
			spans[i] = rng.Float64() * 4000
			segs[i] = over(spans[i], segment.DecayKM)
		}

		got := m.PredictFidelity(segs)
		want := pristineFidelity(m, spans[0])
		for _, l := range spans[1:] {
			want = fidelityOf(wernerOf(want) * wernerOf(pristineFidelity(m, l)) * wernerOf(m.SwapF0))
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: PredictFidelity = %v, pairwise fold = %v", trial, got, want)
		}
		for _, l := range spans {
			if seg := pristineFidelity(m, l); got > seg+1e-12 {
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
	chain := func(m FidelityModel, n int, decayKM float64) float64 {
		segs := make([]*Segment, n)
		for i := range segs {
			segs[i] = over(totalKM/float64(n), decayKM)
		}
		return m.PredictFidelity(segs)
	}
	// Imperfect swaps, slow decay: the single segment wins.
	m := FidelityModel{F0: 0.99, SwapF0: 0.95}
	if single, three := chain(m, 1, 50000), chain(m, 3, 50000); single <= three {
		t.Fatalf("slow decay: single %v should beat chain %v", single, three)
	}
	// Perfect swaps, fast decay: fidelity is length-determined; chain and
	// single tie exactly (Werner parameters multiply over distance), so
	// with even infinitesimally imperfect links the chain's extra swap
	// scaling is the only difference. Verify the tie at SwapF0 = 1.
	m2 := FidelityModel{F0: 1, SwapF0: 1}
	if single, two := chain(m2, 1, 1000), chain(m2, 2, 1000); math.Abs(single-two) > 1e-12 {
		t.Fatalf("with perfect ops, distance alone must determine fidelity: %v vs %v", single, two)
	}
}
