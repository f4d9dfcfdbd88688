package qnet

import (
	"reflect"
	"testing"

	"see/internal/graph"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// stubFaults is a scripted FaultModel and CapacityModel: blocked
// candidates fail outright, every other candidate is granted at most
// grant attempts, and decohere answers SegmentDecohered in call order.
type stubFaults struct {
	blocked  *segment.Candidate
	grant    int
	decohere []bool
}

func (f *stubFaults) CandidateBlocked(c *segment.Candidate) bool { return c == f.blocked }

func (f *stubFaults) CapAttempts(_ *segment.Candidate, want int) int { return min(want, f.grant) }

func (f *stubFaults) SegmentDecohered() bool {
	lost := f.decohere[0]
	f.decohere = f.decohere[1:]
	return lost
}

// Blocked and brownout-denied attempts fail without an rng draw, so a
// faulty physical phase equals the fault-free phase over the attempts that
// were actually fired, and the observer still sees every reserved attempt.
func TestArenaAttemptBlockedAndBrownout(t *testing.T) {
	set, _ := motivationSet(t)
	blocked := set.For(topo.MotivS1, topo.MotivR1)[0]
	capped := set.For(topo.MotivS2, topo.MotivD2)[0]
	plan := planOf(PlanEntry{Cand: blocked, N: 3}, PlanEntry{Cand: capped, N: 4})

	observed := map[*segment.Candidate][]bool{}
	obs := func(c *segment.Candidate, ok bool) { observed[c] = append(observed[c], ok) }
	got := attemptFresh(plan, xrand.New(5), &stubFaults{blocked: blocked, grant: 2}, obs)
	want := attemptFresh(AttemptPlan{{Cand: capped, N: 2}}, xrand.New(5), nil, nil)
	if len(got) != len(want) {
		t.Fatalf("faulty phase created %d segments, fault-free over the fired attempts %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Cand != want[i].Cand {
			t.Fatalf("segment %d realized over %v, want %v", i, got[i].Cand.Path, want[i].Cand.Path)
		}
	}
	if !reflect.DeepEqual(observed[blocked], []bool{false, false, false}) {
		t.Errorf("blocked attempts observed as %v, want three failures", observed[blocked])
	}
	if o := observed[capped]; len(o) != 4 || o[2] || o[3] {
		t.Errorf("capped attempts observed as %v, want 4 with the last two denied", o)
	}
}

func TestApplyDecoherence(t *testing.T) {
	segs := []*Segment{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}}
	if kept, lost := ApplyDecoherence(append([]*Segment(nil), segs...), nil); len(kept) != 3 || lost != 0 {
		t.Fatalf("nil model kept %d lost %d, want 3 and 0", len(kept), lost)
	}
	kept, lost := ApplyDecoherence(append([]*Segment(nil), segs...), &stubFaults{decohere: []bool{true, false, true}})
	if lost != 2 || len(kept) != 1 || kept[0] != segs[1] {
		t.Fatalf("kept %v lost %d, want only the middle segment and 2 lost", kept, lost)
	}
}

func TestPoolResetTakeBestUnconsumed(t *testing.T) {
	ab, cd := segment.MakePairKey(0, 1), segment.MakePairKey(2, 3)
	old := &Segment{A: 0, B: 1}
	old.SetWernerScale(0.5)
	fresh, twin := &Segment{A: 0, B: 1}, &Segment{A: 0, B: 1}
	other := &Segment{A: 2, B: 3}
	pool := NewPool([]*Segment{other, old, fresh, twin})

	score := func(s *Segment) float64 { return s.WernerScale() }
	if s := pool.TakeBestAt(pool.IndexOf(ab), score); s != fresh {
		t.Fatal("TakeBestAt must pick the highest score, first on ties")
	}
	if pool.IndexOf(segment.MakePairKey(5, 6)) != -1 {
		t.Fatal("IndexOf invented a pair the pool never held")
	}
	if got := pool.AppendUnconsumed(nil); !reflect.DeepEqual(got, []*Segment{old, twin, other}) {
		t.Fatalf("Unconsumed = %v, want sorted pairs then insertion order", got)
	}

	pool.Reset([]*Segment{{A: 2, B: 3}})
	if got := availablePairs(pool); len(got) != 1 || got[0] != cd {
		t.Fatalf("after Reset Pairs = %v, want only %v", got, cd)
	}
	if available(pool, ab) != 0 || available(pool, cd) != 1 {
		t.Fatal("Reset kept the previous slot's segments")
	}
}

func TestFloorPolicy(t *testing.T) {
	pk := segment.MakePairKey(0, 1)
	mk := func() (aged, fresh *Segment, pool *Pool) {
		aged, fresh = &Segment{A: 0, B: 1}, &Segment{A: 0, B: 1}
		aged.SetWernerScale(0.5)
		return aged, fresh, NewPool([]*Segment{aged, fresh})
	}

	off := NewFloorPolicy(nil)
	aged, _, pool := mk()
	if off.TakeAt(pool, 0, pool.IndexOf(pk)) != aged || off.Rejects(0, []*Segment{aged}) {
		t.Fatal("an unfloored policy must take FIFO and reject nothing")
	}
	zero := NewFloorPolicy(&FloorSpec{PerPair: map[int]float64{2: 0}})
	aged, _, pool = mk()
	if zero.TakeAt(pool, 2, pool.IndexOf(pk)) != aged || zero.Rejects(2, []*Segment{aged}) {
		t.Fatal("an all-zero spec must be inactive")
	}

	f := DefaultFidelityModel().PredictFidelity([]*Segment{{}})
	spec := &FloorSpec{Default: 0, PerPair: map[int]float64{0: f - 1e-9}}
	on := NewFloorPolicy(spec)
	aged, fresh, pool := mk()
	if on.TakeAt(pool, 0, pool.IndexOf(pk)) != fresh {
		t.Fatal("a floored pair must take its best-scored segment first")
	}
	if on.TakeAt(pool, 1, pool.IndexOf(pk)) != aged {
		t.Fatal("an unfloored pair must keep FIFO order under an active policy")
	}
	if on.Rejects(0, []*Segment{fresh}) {
		t.Fatal("a fresh segment meeting the floor was rejected")
	}
	if !on.Rejects(0, []*Segment{aged}) {
		t.Fatal("an aged segment below the floor was accepted")
	}
	if on.Rejects(1, []*Segment{aged}) {
		t.Fatal("an unfloored pair was rejected")
	}
}

func TestParseSwapOrder(t *testing.T) {
	for _, o := range []SwapOrder{SwapOrderPath, SwapOrderGreedy} {
		got, err := ParseSwapOrder(o.String())
		if err != nil || got != o {
			t.Fatalf("ParseSwapOrder(%q) = %v, %v", o.String(), got, err)
		}
	}
	if _, err := ParseSwapOrder("bogus"); err == nil {
		t.Fatal("unknown swap order accepted")
	}
	if s := SwapOrder(7).String(); s != "SwapOrder(7)" {
		t.Fatalf("unknown order renders as %q", s)
	}
}

// The greedy order swaps the least reliable junction first: a connection
// doomed by a dead junction fails there without sampling the others.
func TestGreedySwapOrder(t *testing.T) {
	net := &topo.Network{G: graph.New(4), SwapProb: []float64{1, 1, 0, 1}}
	conn := func() *Connection {
		return &Connection{
			Nodes:    graph.Path{0, 1, 2, 3},
			Segments: []*Segment{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}},
		}
	}
	for _, tc := range []struct {
		order SwapOrder
		want  []int
	}{
		{SwapOrderPath, []int{1, 2}},
		{SwapOrderGreedy, []int{2}},
	} {
		var visited []int
		obs := func(junction int, _ bool) { visited = append(visited, junction) }
		if conn().EstablishOrderedObserved(net, NewPool(nil), nil, xrand.New(1), obs, tc.order, nil) {
			t.Fatalf("%v: a q=0 junction established", tc.order)
		}
		if !reflect.DeepEqual(visited, tc.want) {
			t.Errorf("%v swapped junctions %v, want %v", tc.order, visited, tc.want)
		}
	}

	net.SwapProb[2] = 1
	c := conn()
	if !c.EstablishOrderedObserved(net, NewPool(nil), nil, xrand.New(1), nil, SwapOrderGreedy, nil) || c.Fidelity <= 0 {
		t.Fatalf("greedy order over reliable junctions: fidelity %v", c.Fidelity)
	}
}
