package state

import (
	"math/rand"
	"testing"

	"see/internal/qnet"
)

// TestBankProperties drives randomized deposit / withdraw / re-deposit /
// slot-boundary sequences against the bank and checks after every
// operation that
//
//   - CheckConservation holds (usage counters match entries, never exceed
//     memory sizes),
//   - no entry outlives the CarrySlots age window, and
//   - WithdrawAll returns segments oldest-first (creation slot
//     non-decreasing, even across re-deposits).
func TestBankProperties(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			net := motivationNet(t)
			window := 1 + rng.Intn(3)
			pol := Policy{CarrySlots: window, Seed: seed}
			if rng.Intn(2) == 0 {
				pol.Decoherence = 0.2
			}
			b := NewBank(net, pol)
			b.BeginSlot()

			check := func(stage string) {
				t.Helper()
				if err := b.CheckConservation(); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				for _, e := range b.entries {
					if age := b.slot - e.birth; age > window {
						t.Fatalf("%s: entry born slot %d still banked at slot %d (window %d)",
							stage, e.birth, b.slot, window)
					}
				}
			}

			var carried []*qnet.Segment
			for op := 0; op < 400; op++ {
				switch rng.Intn(3) {
				case 0: // deposit fresh segments
					n := 1 + rng.Intn(4)
					segs := make([]*qnet.Segment, 0, n)
					for i := 0; i < n; i++ {
						a := rng.Intn(net.NumNodes())
						c := rng.Intn(net.NumNodes() - 1)
						if c >= a {
							c++
						}
						segs = append(segs, seg(a, c))
					}
					b.Deposit(segs)
					check("deposit")
				case 1: // slot boundary
					sizeBefore := b.Size()
					expired, decohered := b.BeginSlot()
					if lost := expired + decohered; lost > sizeBefore {
						t.Fatalf("boundary lost %d of %d banked segments", lost, sizeBefore)
					}
					carried = nil
					check("begin-slot")
				case 2: // withdraw, maybe re-deposit an unconsumed subset
					size := b.Size()
					out := b.WithdrawAll()
					if len(out) != size {
						t.Fatalf("withdrew %d of %d banked segments", len(out), size)
					}
					if b.Size() != 0 {
						t.Fatalf("%d segments left after WithdrawAll", b.Size())
					}
					check("withdraw")
					carried = out
					if len(carried) > 0 && rng.Intn(2) == 0 {
						keep := carried[:rng.Intn(len(carried)+1)]
						b.Deposit(keep)
						check("re-deposit")
					}
				}
			}
			_ = carried
		})
	}
}

// TestWithdrawOldestFirst pins the ordering contract directly: a withdrawn
// old segment re-deposited after younger ones still comes out first.
func TestWithdrawOldestFirst(t *testing.T) {
	net := motivationNet(t)
	b := NewBank(net, Policy{CarrySlots: 3})
	b.BeginSlot() // slot 0
	old := seg(0, 1)
	b.Deposit([]*qnet.Segment{old})

	b.BeginSlot() // slot 1
	out := b.WithdrawAll()
	if len(out) != 1 || out[0].Pair() != old.Pair() {
		t.Fatalf("withdraw returned %v, want the slot-0 segment", out)
	}
	young := seg(2, 3)
	// Deposit the young segment first, then re-deposit the withdrawn old
	// one: deposit order now disagrees with age order.
	b.Deposit([]*qnet.Segment{young, out[0]})

	b.BeginSlot() // slot 2
	out = b.WithdrawAll()
	if len(out) != 2 {
		t.Fatalf("withdrew %d segments, want 2", len(out))
	}
	if out[0].Pair() != old.Pair() || out[1].Pair() != young.Pair() {
		t.Error("WithdrawAll is not oldest-first across re-deposits")
	}
}

// TestWithdrawalAges asserts the ordering property over the randomized
// walk too: every WithdrawAll result has non-decreasing creation slots.
func TestWithdrawalAges(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	net := motivationNet(t)
	b := NewBank(net, Policy{CarrySlots: 4})
	b.BeginSlot()
	for op := 0; op < 200; op++ {
		if rng.Intn(3) == 0 {
			b.BeginSlot()
		}
		a := rng.Intn(net.NumNodes())
		c := rng.Intn(net.NumNodes() - 1)
		if c >= a {
			c++
		}
		b.Deposit([]*qnet.Segment{seg(a, c)})
		if rng.Intn(4) != 0 {
			continue
		}
		out := b.WithdrawAll()
		for i := 1; i < len(out); i++ {
			prev, _ := out[i-1].BankBirth()
			cur, _ := out[i].BankBirth()
			if prev > cur {
				t.Fatalf("op %d: withdrawal out of age order: %d after %d", op, prev, cur)
			}
		}
		// Re-deposit a random prefix so later withdrawals see mixed ages.
		b.Deposit(out[:rng.Intn(len(out)+1)])
	}
}
