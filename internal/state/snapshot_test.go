package state

import (
	"reflect"
	"testing"

	"see/internal/qnet"
	"see/internal/segment"
	"see/internal/topo"
)

// bankFixture returns a bank with a stochastic hazard plus a candidate
// catalogue over the motivation network so restored segments can re-link.
func bankFixture(t *testing.T) (*Bank, *segment.Set, *topo.Network) {
	t.Helper()
	net := motivationNet(t)
	set, err := segment.Build(net, []topo.SDPair{{S: 0, D: 3}}, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBank(net, Policy{CarrySlots: 3, Decoherence: 0.25, Seed: 7})
	return b, set, net
}

// candSeg realizes a segment over the catalogue's best candidate for (a,b).
func candSeg(t *testing.T, set *segment.Set, a, b int) *qnet.Segment {
	t.Helper()
	c := set.For(a, b)[0]
	if c == nil {
		t.Fatalf("no candidate for ⟨%d,%d⟩", a, b)
	}
	return &qnet.Segment{A: min(a, b), B: max(a, b), Cand: c}
}

// TestBankStateRestoreRoundTrip asserts the kill/resume contract: a bank
// restored from a mid-run snapshot loses and withdraws exactly the same
// segments, in the same order, as the uninterrupted bank.
func TestBankStateRestoreRoundTrip(t *testing.T) {
	b, set, _ := bankFixture(t)
	b.BeginSlot() // slot 0
	b.Deposit([]*qnet.Segment{candSeg(t, set, 0, 2), candSeg(t, set, 2, 3)})
	b.BeginSlot() // slot 1
	b.Deposit([]*qnet.Segment{candSeg(t, set, 0, 2)})

	snap := b.State()
	if snap == nil || snap.Slot != 1 || len(snap.Entries) == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}

	// Uninterrupted continuation.
	var wantLost [2]int
	wantLost[0], wantLost[1] = b.BeginSlot()
	wantOrder := describe(b.WithdrawAll())
	wantStats := b.stats

	// Resumed continuation: fresh bank + fresh catalogue (as a restarted
	// process would rebuild), restore, then the same slot.
	fresh, freshSet, _ := bankFixture(t)
	if err := fresh.Restore(snap, freshSet.CandidateFor); err != nil {
		t.Fatal(err)
	}
	if fresh.slot != 1 || len(fresh.entries) != len(snap.Entries) {
		t.Fatalf("restored slot %d size %d, want 1 and %d", fresh.slot, len(fresh.entries), len(snap.Entries))
	}
	var gotLost [2]int
	gotLost[0], gotLost[1] = fresh.BeginSlot()
	if gotLost != wantLost {
		t.Fatalf("boundary losses diverge: %v vs %v", gotLost, wantLost)
	}
	withdrawn := fresh.WithdrawAll()
	if got := describe(withdrawn); !reflect.DeepEqual(got, wantOrder) {
		t.Fatalf("withdraw order diverges:\n got %v\nwant %v", got, wantOrder)
	}
	if got := fresh.stats; got != wantStats {
		t.Fatalf("stats diverge: %+v vs %+v", got, wantStats)
	}
	// Candidates must be re-linked to the fresh catalogue's objects.
	for _, s := range withdrawn {
		if s.Cand == nil {
			t.Fatal("restored segment lost its candidate")
		}
		if freshSet.CandidateFor(s.A, s.B, s.Cand.Path) != s.Cand {
			t.Fatal("restored candidate is not the fresh catalogue's object")
		}
	}
}

func describe(segs []*qnet.Segment) [][2]int {
	out := make([][2]int, len(segs))
	for i, s := range segs {
		out[i] = [2]int{s.A, s.B}
	}
	return out
}

// TestBankRestoreMismatch checks configuration mismatches surface as
// errors rather than silent divergence.
func TestBankRestoreMismatch(t *testing.T) {
	b, set, _ := bankFixture(t)
	b.BeginSlot()
	b.Deposit([]*qnet.Segment{candSeg(t, set, 0, 2)})
	snap := b.State()

	var nilBank *Bank
	if err := nilBank.Restore(snap, set.CandidateFor); err == nil {
		t.Error("nil bank accepted a non-nil snapshot")
	}
	if err := nilBank.Restore(nil, nil); err != nil {
		t.Errorf("nil bank rejected nil snapshot: %v", err)
	}

	fresh, _, _ := bankFixture(t)
	if err := fresh.Restore(snap, func(a, b int, path []int) *segment.Candidate { return nil }); err == nil {
		t.Error("restore succeeded with an unresolvable candidate")
	}
	if err := fresh.Restore(snap, nil); err == nil {
		t.Error("restore succeeded without a resolver")
	}
}

// TestBankRestoreNilResets asserts Restore(nil, nil) rewinds to the empty
// pre-first-slot bank.
func TestBankRestoreNilResets(t *testing.T) {
	b, set, _ := bankFixture(t)
	b.BeginSlot()
	b.Deposit([]*qnet.Segment{candSeg(t, set, 0, 2)})
	if err := b.Restore(nil, nil); err != nil {
		t.Fatal(err)
	}
	if b.slot != -1 || len(b.entries) != 0 || b.stats != (Stats{}) {
		t.Fatalf("after reset: slot %d size %d stats %+v", b.slot, len(b.entries), b.stats)
	}
	if err := b.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestBankStateSeqSurvival pins that the deposit sequence counter (the
// stochastic-hazard input) survives the round trip: two resumes of the same
// snapshot make identical future survival draws.
func TestBankStateSeqSurvival(t *testing.T) {
	b, set, _ := bankFixture(t)
	b.BeginSlot()
	b.Deposit([]*qnet.Segment{candSeg(t, set, 0, 2), candSeg(t, set, 2, 3)})
	snap := b.State()
	if snap.Seq != 2 {
		t.Fatalf("snapshot seq %d, want 2", snap.Seq)
	}
	fresh, freshSet, _ := bankFixture(t)
	if err := fresh.Restore(snap, freshSet.CandidateFor); err != nil {
		t.Fatal(err)
	}
	// New deposits must continue the sequence, not restart it.
	fresh.Deposit([]*qnet.Segment{candSeg(t, freshSet, 0, 3)})
	if st := fresh.State(); st.Seq != 3 || st.Entries[2].Seq != 2 {
		t.Fatalf("post-restore deposit got seq %d (counter %d), want 2 (3)", st.Entries[2].Seq, st.Seq)
	}
}
