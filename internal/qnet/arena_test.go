package qnet

import (
	"math/rand"
	"testing"

	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// attemptFresh fires a plan into a fresh arena.
func attemptFresh(plan AttemptPlan, rng *rand.Rand, fm FaultModel, obs AttemptObserver) []*Segment {
	var a Arena
	return a.Attempt(nil, plan, rng, fm, obs)
}

// TestArenaPointersStable: segments appended across several chunks keep
// their addresses and values while the arena grows, and a Reset hands the
// same storage out again instead of allocating.
func TestArenaPointersStable(t *testing.T) {
	set, _ := motivationSet(t)
	c := set.Best(topo.MotivS1, topo.MotivR1) // p = 0.9
	plan := AttemptPlan{{Cand: c, N: 3 * arenaChunk}}
	var a Arena
	first := a.Attempt(nil, plan, xrand.New(1), nil, nil)
	if len(first) <= arenaChunk {
		t.Fatalf("only %d segments: the test must span chunks", len(first))
	}
	if a.n != len(first) {
		t.Fatalf("arena holds %d segments, want %d", a.n, len(first))
	}
	more := a.Attempt(first, plan, xrand.New(2), nil, nil)
	for i, s := range first {
		if more[i] != s || s.Cand != c || s.Pair() != segment.MakePairKey(c.U(), c.V()) || s.Consumed() {
			t.Fatalf("segment %d moved or changed while the arena grew", i)
		}
	}
	chunks := len(a.chunks)
	a.Reset()
	again := a.Attempt(nil, plan, xrand.New(1), nil, nil)
	if len(again) != len(first) || again[0] != first[0] || len(a.chunks) != chunks {
		t.Fatal("Reset did not reuse the arena's storage from its first segment")
	}
}
