package schedtest

import (
	"math"
	"reflect"
	"testing"

	"see/internal/engines"
	"see/internal/oracle"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/state"
	"see/internal/topo"
)

// TestOracleBoundsDeliveries pins the capacity oracle's central promise
// against the whole registry: no engine ever delivers more connections for
// a pair than the oracle's Hard bound allows. Without a bank the bound is
// per-slot. With a carry-over bank a banked segment crossed the channel
// cut in the slot that created it, so the per-slot form does not apply —
// the bound holds cumulatively instead: T slots from an empty bank deliver
// at most T·Hard.
func TestOracleBoundsDeliveries(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed+9)
	if err != nil {
		t.Fatal(err)
	}
	bounds := oracle.ComputeBounds(net, pairs)
	for i, b := range bounds {
		if b.Hard < 0 {
			t.Fatalf("pair %d: negative Hard bound %d", i, b.Hard)
		}
		if b.Expected < 0 || b.Expected > float64(b.Hard) {
			t.Fatalf("pair %d: Expected %v outside [0, Hard=%d]", i, b.Expected, b.Hard)
		}
	}
	const slots = 6
	forEachEngine(t, func(t *testing.T, alg sched.Algorithm) {
		for _, carry := range []bool{false, true} {
			name := "memoryless"
			if carry {
				name = "carry"
			}
			t.Run(name, func(t *testing.T) {
				eng, err := engines.New(alg, net, pairs, engines.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if carry {
					eng.AttachBank(state.NewBank(net, state.Policy{CarrySlots: 2}))
				}
				rng := NewRng(41)
				total := make([]int, len(pairs))
				for s := 0; s < slots; s++ {
					res, err := eng.RunSlot(rng)
					if err != nil {
						t.Fatalf("slot %d: %v", s, err)
					}
					for i, n := range res.PerPair {
						total[i] += n
						if !carry && n > bounds[i].Hard {
							t.Errorf("slot %d pair %d: delivered %d > Hard bound %d", s, i, n, bounds[i].Hard)
						}
					}
				}
				for i := range pairs {
					if total[i] > slots*bounds[i].Hard {
						t.Errorf("pair %d: delivered %d over %d slots > cumulative bound %d",
							i, total[i], slots, slots*bounds[i].Hard)
					}
				}
			})
		}
	})
}

// TestFidelityMatchesRecompute checks that the fidelity stamped on every
// delivered connection is, bit for bit, the fold of referenceFidelity
// over the connection's own segments: every engine with floors disabled,
// and SEE, REPS, Contend and Greedy under a fidelity floor and with a
// carry-over bank, whose withdrawn segments carry age decay. Checking
// happens inside the slot loop because segment arenas are recycled
// across slots.
func TestFidelityMatchesRecompute(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed+10)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, alg sched.Algorithm, cfg engines.Config) {
		eng, err := engines.New(alg, net, pairs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := NewRng(43)
		checked := 0
		for s := 0; s < testSlots; s++ {
			res, err := eng.RunSlot(rng)
			if err != nil {
				t.Fatalf("slot %d: %v", s, err)
			}
			for ci, c := range res.Connections {
				if want := referenceFidelity(net, c.Segments); c.Fidelity != want {
					t.Errorf("slot %d connection %d: Fidelity %v, reference fold %v", s, ci, c.Fidelity, want)
				}
				checked++
			}
		}
		if checked == 0 && alg != sched.Oracle {
			t.Errorf("%v delivered no connections to check", alg)
		}
	}
	forEachEngine(t, func(t *testing.T, alg sched.Algorithm) { check(t, alg, engines.Config{}) })
	for _, alg := range []sched.Algorithm{sched.SEE, sched.REPS, sched.Contend, sched.Greedy} {
		t.Run(alg.String()+"-floored", func(t *testing.T) {
			check(t, alg, engines.Config{FidelityFloors: &qnet.FloorSpec{Default: 0.8}})
		})
		t.Run(alg.String()+"-banked", func(t *testing.T) {
			check(t, alg, engines.Config{CarryOver: true, DecoherenceSlots: 2,
				CarryWernerRetention: 0.9, CarryMinWernerScale: 0.5})
		})
	}
}

// referenceFidelity is the default model's end-to-end fidelity of segs as
// qnet computed it before candidates stored their decay factor: each
// segment's exp(−L/DecayKM) recomputed from its route's fibre length (0
// without a candidate), in the same operand order.
func referenceFidelity(net *topo.Network, segs []*qnet.Segment) float64 {
	if len(segs) == 0 {
		return 0
	}
	m := qnet.DefaultFidelityModel()
	werner := func(f float64) float64 { return (4*f - 1) / 3 }
	w := 1.0
	for _, s := range segs {
		var l float64
		if s.Cand != nil {
			l = net.PathLengthKM(s.Cand.Path)
		}
		w *= werner(m.F0) * math.Exp(-l/segment.DecayKM) * s.WernerScale()
	}
	for i := 1; i < len(segs); i++ {
		w *= werner(m.SwapF0)
	}
	return (3*w + 1) / 4
}

// TestFloorsEnforced runs every engine under a tight fidelity floor and
// checks the enforcement contract: nothing below the floor is ever
// delivered, and (across the registry as a whole) the floor both rejects
// candidates and still lets compliant connections through — the floor is
// neither vacuous nor a total outage on this instance.
func TestFloorsEnforced(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed+11)
	if err != nil {
		t.Fatal(err)
	}
	floors := &qnet.FloorSpec{Default: 0.8}
	delivered, rejected := 0, 0
	forEachEngine(t, func(t *testing.T, alg sched.Algorithm) {
		eng, err := engines.New(alg, net, pairs, engines.Config{FidelityFloors: floors})
		if err != nil {
			t.Fatal(err)
		}
		rng := NewRng(47)
		for s := 0; s < testSlots; s++ {
			res, err := eng.RunSlot(rng)
			if err != nil {
				t.Fatalf("slot %d: %v", s, err)
			}
			if res.FloorRejected < 0 {
				t.Fatalf("slot %d: negative FloorRejected %d", s, res.FloorRejected)
			}
			rejected += res.FloorRejected
			for ci, c := range res.Connections {
				if floor := floors.Floor(c.Pair); c.Fidelity < floor {
					t.Errorf("slot %d connection %d: delivered fidelity %v below floor %v", s, ci, c.Fidelity, floor)
				}
				delivered++
			}
		}
	})
	if delivered == 0 {
		t.Error("floor 0.8 delivered nothing across the whole registry; floor too tight to test enforcement")
	}
	if rejected == 0 {
		t.Error("floor 0.8 rejected nothing across the whole registry; floor too loose to test enforcement")
	}
}

// TestDisabledFidelityKnobsByteIdentical pins the disabled paths of every
// knob this layer added: an all-zero floor spec, the explicit path swap
// order (the zero value), and carry-aware LP pricing without a bank must
// all leave every engine byte-identical to a plain build.
func TestDisabledFidelityKnobsByteIdentical(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed+12)
	if err != nil {
		t.Fatal(err)
	}
	forEachEngine(t, func(t *testing.T, alg sched.Algorithm) {
		plain, err := engines.New(alg, net, pairs, engines.Config{})
		if err != nil {
			t.Fatal(err)
		}
		knobbed, err := engines.New(alg, net, pairs, engines.Config{
			FidelityFloors: &qnet.FloorSpec{},
			SwapOrder:      qnet.SwapOrderPath,
			CarryAwareLP:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		a, err := Run(plain, 53, testSlots)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(knobbed, 53, testSlots)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Error("disabled fidelity knobs changed the run")
		}
	})
}
