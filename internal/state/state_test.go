package state

import (
	"slices"
	"testing"

	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/segment"
	"see/internal/topo"
)

// seg builds a realized segment between a and b (no physical route needed
// for bank accounting).
func seg(a, b int) *qnet.Segment {
	if a > b {
		a, b = b, a
	}
	return &qnet.Segment{A: a, B: b}
}

// motivationNet returns the Fig. 2 fixture with every memory raised to 4
// units so bank tests control scarcity explicitly (the fixture's own
// memories are 1–2 units).
func motivationNet(t *testing.T) *topo.Network {
	t.Helper()
	net, _ := topo.Motivation()
	for i := range net.Memory {
		net.Memory[i] = 4
	}
	return net
}

func TestDepositRespectsMemory(t *testing.T) {
	net := motivationNet(t)
	// The motivation fixture gives every node the same memory size; cap
	// node 0 at 2 units to exercise rejection.
	net.Memory[0] = 2
	b := NewBank(net, Policy{})
	b.BeginSlot()

	segs := []*qnet.Segment{seg(0, 1), seg(0, 2), seg(0, 3), seg(1, 2)}
	accepted := b.Deposit(segs)
	// seg(0,3) must be rejected: node 0 is full after the first two.
	if accepted != 3 {
		t.Fatalf("accepted %d segments, want 3", accepted)
	}
	if got := b.used[0]; got != 2 {
		t.Errorf("node 0 banks %d units, want 2", got)
	}
	if st := b.stats; st.Rejected != 1 || st.Deposited != 3 {
		t.Errorf("stats = %+v, want 1 rejection, 3 deposits", st)
	}
	if err := b.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestDepositSkipsConsumed(t *testing.T) {
	net := motivationNet(t)
	b := NewBank(net, Policy{})
	b.BeginSlot()
	s := seg(0, 1)
	pool := qnet.NewPool([]*qnet.Segment{s})
	pool.TakeAt(pool.IndexOf(s.Pair()))
	if got := b.Deposit([]*qnet.Segment{s}); got != 0 {
		t.Fatalf("banked a consumed segment (accepted %d)", got)
	}
}

func TestAgeWindowExpiry(t *testing.T) {
	net := motivationNet(t)
	b := NewBank(net, Policy{CarrySlots: 2})
	b.BeginSlot() // slot 0
	b.Deposit([]*qnet.Segment{seg(0, 1)})

	// Boundaries 1 and 2 are inside the window; boundary 3 expires it.
	for slot := 1; slot <= 2; slot++ {
		if expired, decohered := b.BeginSlot(); expired+decohered != 0 {
			t.Fatalf("slot %d: lost %d+%d segments inside the window", slot, expired, decohered)
		}
	}
	expired, decohered := b.BeginSlot()
	if expired != 1 || decohered != 0 {
		t.Fatalf("expiry boundary lost (%d,%d), want (1,0)", expired, decohered)
	}
	if len(b.entries) != 0 {
		t.Errorf("bank still holds %d segments", len(b.entries))
	}
	if got := b.used[0]; got != 0 {
		t.Errorf("expired segment still occupies %d units at node 0", got)
	}
}

func TestStochasticDecoherenceIsSeededAndExhaustive(t *testing.T) {
	net := motivationNet(t)
	// Decoherence 1 kills every banked segment at the first boundary.
	b := NewBank(net, Policy{CarrySlots: 10, Decoherence: 1, Seed: 7})
	b.BeginSlot()
	b.Deposit([]*qnet.Segment{seg(0, 1), seg(1, 2)})
	expired, decohered := b.BeginSlot()
	if expired != 0 || decohered != 2 {
		t.Fatalf("boundary lost (%d,%d), want (0,2)", expired, decohered)
	}

	// A fixed seed yields a fixed survivor set at intermediate hazard.
	survivors := func(seed int64) int {
		b := NewBank(net, Policy{CarrySlots: 10, Decoherence: 0.5, Seed: seed})
		b.BeginSlot()
		var segs []*qnet.Segment
		for i := 0; i < 6; i++ {
			segs = append(segs, seg(i%4, i%4+1))
		}
		b.Deposit(segs)
		b.BeginSlot()
		return len(b.entries)
	}
	if survivors(3) != survivors(3) {
		t.Error("same seed, different survivor count")
	}
}

func TestWithdrawPreservesAgeOnRedeposit(t *testing.T) {
	net := motivationNet(t)
	b := NewBank(net, Policy{CarrySlots: 1})
	b.BeginSlot() // slot 0
	s := seg(0, 1)
	b.Deposit([]*qnet.Segment{s})

	b.BeginSlot() // slot 1: inside the window
	got := b.WithdrawAll()
	if len(got) != 1 || got[0].Pair() != s.Pair() || got[0].Cand != s.Cand {
		t.Fatalf("withdrew %v, want the deposited segment", got)
	}
	if b.used[0] != 0 || b.used[1] != 0 {
		t.Fatal("withdrawal did not release banked memory")
	}
	// Unconsumed: re-deposit. Birth must stay slot 0, so the segment
	// expires at the next boundary instead of living another full window.
	b.Deposit(got)
	if expired, _ := b.BeginSlot(); expired != 1 {
		t.Fatalf("re-deposited segment kept riding the bank (expired=%d)", expired)
	}
	if st := b.stats; st.Withdrawn != 1 || st.Expired != 1 {
		t.Errorf("stats = %+v, want 1 withdrawal and 1 expiry", st)
	}
}

func TestTrimPlan(t *testing.T) {
	c01 := &segment.Candidate{Path: graph.Path{0, 1}, Prob: 0.5, ID: 0}
	c01b := &segment.Candidate{Path: graph.Path{0, 2, 1}, Prob: 0.4, ID: 1}
	c23 := &segment.Candidate{Path: graph.Path{2, 3}, Prob: 0.9, ID: 2}
	plan := qnet.AttemptPlan{{Cand: c01, N: 2}, {Cand: c01b, N: 3}, {Cand: c23, N: 1}}
	before := slices.Clone(plan)
	// A nil bank (carry-over off) trims with no substitution threshold.
	var b *Bank

	// No withdrawals: the same plan comes back, untrimmed.
	if got, n := b.TrimPlan(plan, nil); n != 0 || len(got) != 3 {
		t.Fatalf("empty trim changed the plan (n=%d)", n)
	}

	// Three carried ⟨0,1⟩ segments: candidates trim in plan order — c01
	// (path 0-1) before c01b (path 0-2-1) — and the original plan is
	// untouched.
	withdrawn := []*qnet.Segment{seg(0, 1), seg(0, 1), seg(0, 1)}
	got, n := b.TrimPlan(plan, withdrawn)
	if n != 3 {
		t.Fatalf("trimmed %d attempts, want 3", n)
	}
	if !slices.Equal(plan, before) {
		t.Fatal("TrimPlan mutated the input plan")
	}
	// c01 is trimmed away, c01b loses one attempt, c23 is untouched.
	if want := (qnet.AttemptPlan{{Cand: c01b, N: 2}, {Cand: c23, N: 1}}); !slices.Equal(got, want) {
		t.Errorf("trimmed plan = %v, want %v", got, want)
	}

	// A carried segment on a pair the plan does not cover trims nothing.
	if same, n := b.TrimPlan(plan, []*qnet.Segment{seg(5, 6)}); n != 0 || len(same) != 3 {
		t.Errorf("foreign-pair trim removed %d attempts", n)
	}
}

func TestConservationAcrossChurn(t *testing.T) {
	net := motivationNet(t)
	b := NewBank(net, Policy{CarrySlots: 2, Decoherence: 0.3, Seed: 11})
	b.BeginSlot()
	for slot := 0; slot < 40; slot++ {
		// Deposit a rotating set of segments, some of which will be
		// rejected once memories fill.
		var segs []*qnet.Segment
		for i := 0; i < 5; i++ {
			u := (slot + i) % net.NumNodes()
			v := (u + 1 + i%2) % net.NumNodes()
			if u != v {
				segs = append(segs, seg(u, v))
			}
		}
		b.Deposit(segs)
		if err := b.CheckConservation(); err != nil {
			t.Fatalf("slot %d after deposit: %v", slot, err)
		}
		b.BeginSlot()
		if err := b.CheckConservation(); err != nil {
			t.Fatalf("slot %d after boundary: %v", slot, err)
		}
		if slot%3 == 0 {
			b.WithdrawAll()
			if err := b.CheckConservation(); err != nil {
				t.Fatalf("slot %d after withdraw: %v", slot, err)
			}
		}
	}
	st := b.stats
	if st.Deposited == 0 || st.Withdrawn == 0 || st.Expired+st.Decohered == 0 {
		t.Errorf("churn exercised too little of the bank: %+v", st)
	}
}

func TestNilBankIsInert(t *testing.T) {
	var b *Bank
	if b.State() != nil {
		t.Error("nil bank reported state")
	}
	if err := b.CheckConservation(); err != nil {
		t.Error(err)
	}
}
