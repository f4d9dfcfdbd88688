package schedtest

import (
	"reflect"
	"strings"
	"testing"

	"see/internal/chaos"
	"see/internal/engines"
	"see/internal/sched"
	"see/internal/state"
	"see/internal/topo"
)

// testNodes/testPairs/testSlots size every invariant run: big enough for
// multi-hop paths and contention, small enough for the LP engines under
// -race.
const (
	testNodes = 40
	testPairs = 8
	testSlots = 3
	testSeed  = 20220406
)

// TestRegistryComplete pins the engine registry: the paper trio, the
// repo-grown baselines, the Q-PASS-style offline contrast, the fault-aware
// variants and the capacity-bound oracle, in enum order. A new engine must
// be added here deliberately — and by being registered it automatically
// enters every other test in this package.
func TestRegistryComplete(t *testing.T) {
	want := []sched.Algorithm{
		sched.SEE, sched.REPS, sched.E2E, sched.Greedy, sched.Contend,
		sched.QPass, sched.ContendAware, sched.SEEAware, sched.Oracle,
	}
	if got := engines.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("engines.List() = %v, want %v", got, want)
	}
	// Every registered scheme has a row in sched's algorithm table: a name
	// that parses back to it, in any case.
	for _, alg := range engines.List() {
		name := alg.String()
		if strings.HasPrefix(name, "Algorithm(") {
			t.Errorf("%d has no algorithm-table row", int(alg))
			continue
		}
		for _, s := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
			if got, err := sched.ParseAlgorithm(s); err != nil || got != alg {
				t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", s, got, err, alg)
			}
		}
	}
}

// forEachEngine runs the check as a subtest per registered algorithm.
func forEachEngine(t *testing.T, fn func(t *testing.T, alg sched.Algorithm)) {
	for _, alg := range engines.List() {
		t.Run(alg.String(), func(t *testing.T) { fn(t, alg) })
	}
}

// TestDeterministicAcrossWorkers checks the strongest cross-engine
// contract: the same instance and rng seed produce reflect.DeepEqual slot
// results at every worker count. The LP engines parallelize their pricing
// rounds across workers, so this catches any scheduling-dependent
// reduction order; the non-LP engines ignore Workers and must stay
// deterministic too. Run under -race (make verify does) this also shakes
// out data races in the pricing pools.
func TestDeterministicAcrossWorkers(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	forEachEngine(t, func(t *testing.T, alg sched.Algorithm) {
		var base []sched.SlotResult
		for _, workers := range []int{1, 4, 8} {
			eng, err := engines.New(alg, net, pairs, engines.Config{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			got, err := Run(eng, 7, testSlots)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if base == nil {
				base = got
				continue
			}
			if !reflect.DeepEqual(base, got) {
				t.Errorf("workers=%d diverged from workers=1", workers)
			}
		}
		// A second engine over the same instance and seed must reproduce
		// the run exactly (no hidden construction-order state).
		eng, err := engines.New(alg, net, pairs, engines.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		again, err := Run(eng, 7, testSlots)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, again) {
			t.Error("rebuilt engine diverged on the same seed")
		}
	})
}

// TestSlotResultInvariants checks every engine's per-slot counters and
// connections against the shared contract (CheckSlotResult).
func TestSlotResultInvariants(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	forEachEngine(t, func(t *testing.T, alg sched.Algorithm) {
		eng, err := engines.New(alg, net, pairs, engines.Config{})
		if err != nil {
			t.Fatal(err)
		}
		results, err := Run(eng, 11, 6)
		if err != nil {
			t.Fatal(err)
		}
		for s, res := range results {
			if err := CheckSlotResult(net, pairs, res); err != nil {
				t.Errorf("slot %d: %v", s, err)
			}
		}
	})
}

// TestReservationConservation reconciles the tracer's AttemptReserved
// stream with the slot results and the network's memory capacities: event
// sums must equal SlotResult.Attempts and no node may hold more reserved
// attempts than memory units.
func TestReservationConservation(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed+2)
	if err != nil {
		t.Fatal(err)
	}
	forEachEngine(t, func(t *testing.T, alg sched.Algorithm) {
		tr := &RecordingTracer{}
		eng, err := engines.New(alg, net, pairs, engines.Config{Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		results, err := Run(eng, 13, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Slots) != len(results) {
			t.Fatalf("tracer saw %d slots, engine ran %d", len(tr.Slots), len(results))
		}
		for s, res := range results {
			if err := CheckReservations(net, tr.Slots[s], res); err != nil {
				t.Errorf("slot %d: %v", s, err)
			}
		}
	})
}

// TestZeroChaosIsByteIdentical checks the chaos layer's disabled path: an
// injector built from a zero-value fault plan must leave every engine
// byte-identical to a run with no injector at all.
func TestZeroChaosIsByteIdentical(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed+3)
	if err != nil {
		t.Fatal(err)
	}
	forEachEngine(t, func(t *testing.T, alg sched.Algorithm) {
		plain, err := engines.New(alg, net, pairs, engines.Config{})
		if err != nil {
			t.Fatal(err)
		}
		chaotic, err := engines.New(alg, net, pairs, engines.Config{Faults: &chaos.FaultPlan{}})
		if err != nil {
			t.Fatal(err)
		}
		a, err := Run(plain, 17, testSlots)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(chaotic, 17, testSlots)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Error("zero-value fault plan changed the run")
		}
	})
}

// forecastPlan builds an all-announced fault plan whose windows lie far
// beyond the slots the tests run, so the forecast is non-trivial but zero
// faults ever realize. The disc cut is aimed at node 5's first incident
// link so it is guaranteed non-empty.
func forecastPlan(t *testing.T, net *topo.Network) *chaos.FaultPlan {
	t.Helper()
	e := net.G.Neighbors(5)[0]
	mx := (net.Pos[5][0] + net.Pos[e.To][0]) / 2
	my := (net.Pos[5][1] + net.Pos[e.To][1]) / 2
	p := &chaos.FaultPlan{
		Seed:        testSeed,
		NodeOutages: []chaos.Window{{ID: 2, From: 100, To: 200}},
		LinkOutages: []chaos.Window{{ID: 1, From: 100, To: 200}},
		DiscCuts:    []chaos.DiscCut{{X: mx, Y: my, R: 1, From: 100, To: 200}},
		Brownouts:   []chaos.Brownout{{Link: 3, Frac: 0.5, From: 100, To: 200}},
		Flaps:       []chaos.Flap{{Link: 4, Period: 4, Duty: 0.5, From: 100, To: 200}},
	}
	if err := p.Validate(net.NumNodes(), net.NumLinks()); err != nil {
		t.Fatal(err)
	}
	if len(chaos.DiscLinks(net, mx, my, 1)) == 0 {
		t.Fatal("disc cut covers no links; fixture is trivial")
	}
	return p
}

// shrinkNet applies the plan's forecast to the capacity tables directly:
// the returned network shares the graph but has forecast-dead elements
// zeroed and browned/flapping links derated — what a fault-aware planner
// is supposed to plan against.
func shrinkNet(t *testing.T, net *topo.Network, p *chaos.FaultPlan) *topo.Network {
	t.Helper()
	fc := p.Forecast(net)
	if fc.IsZero() {
		t.Fatal("forecast is zero; fixture is trivial")
	}
	n2 := *net
	n2.Channels = make([]int, net.NumLinks())
	for id := range n2.Channels {
		n2.Channels[id] = fc.Channels(id, net.Channels[id])
	}
	n2.Memory = make([]int, net.NumNodes())
	for v := range n2.Memory {
		n2.Memory[v] = fc.Memory(v, net.Memory[v])
	}
	return &n2
}

// TestForecastContract pins the announced-fault planning semantics for
// every registered engine. With an all-announced plan whose windows never
// realize inside the run:
//
//   - a fault-aware engine planning on the full topology (forecast
//     subtraction on) must be byte-identical to the same engine planning on
//     the pre-shrunk topology with no injector at all — forecast
//     application is exactly a capacity-table substitution, nothing more;
//   - a fault-blind engine must ignore the announcements entirely and stay
//     byte-identical to its no-chaos run on the full topology.
func TestForecastContract(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed+6)
	if err != nil {
		t.Fatal(err)
	}
	plan := forecastPlan(t, net)
	shrunk := shrinkNet(t, net, plan)
	forEachEngine(t, func(t *testing.T, alg sched.Algorithm) {
		announced, err := engines.New(alg, net, pairs, engines.Config{Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		refNet := net
		if alg.FaultAware() {
			refNet = shrunk
		}
		ref, err := engines.New(alg, refNet, pairs, engines.Config{})
		if err != nil {
			t.Fatal(err)
		}
		a, err := Run(announced, 29, testSlots)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(ref, 29, testSlots)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("announced-but-unrealized plan diverged from the reference run")
		}
	})
}

// TestAwareTwinsMatchBlindWithoutChaos pins the other zero-fault identity:
// with no injector at all, the fault-aware variants are their fault-blind
// twins, byte for byte.
func TestAwareTwinsMatchBlindWithoutChaos(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed+7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ aware, blind sched.Algorithm }{
		{sched.SEEAware, sched.SEE},
		{sched.ContendAware, sched.Contend},
	} {
		t.Run(tc.aware.String(), func(t *testing.T) {
			ea, err := engines.New(tc.aware, net, pairs, engines.Config{})
			if err != nil {
				t.Fatal(err)
			}
			eb, err := engines.New(tc.blind, net, pairs, engines.Config{})
			if err != nil {
				t.Fatal(err)
			}
			a, err := Run(ea, 31, testSlots)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(eb, 31, testSlots)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Error("fault-aware variant diverged from its blind twin without chaos")
			}
		})
	}
}

// TestNilBankIsByteIdentical checks the carry-over layer's disabled path:
// attaching a nil bank must leave every engine byte-identical to never
// touching the capability.
func TestNilBankIsByteIdentical(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed+4)
	if err != nil {
		t.Fatal(err)
	}
	forEachEngine(t, func(t *testing.T, alg sched.Algorithm) {
		plain, err := engines.New(alg, net, pairs, engines.Config{})
		if err != nil {
			t.Fatal(err)
		}
		banked, err := engines.New(alg, net, pairs, engines.Config{})
		if err != nil {
			t.Fatal(err)
		}
		banked.AttachBank(nil)
		if banked.Bank() != nil {
			t.Fatal("Bank() non-nil after attaching nil")
		}
		a, err := Run(plain, 19, testSlots)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(banked, 19, testSlots)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Error("nil bank changed the run")
		}
	})
}

// TestCarryOverContract runs every engine with a real bank attached and
// checks the cross-slot accounting: conservation after every slot and a
// non-trivial carry (deposits happen over enough slots on a dense
// instance).
func TestCarryOverContract(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed+5)
	if err != nil {
		t.Fatal(err)
	}
	forEachEngine(t, func(t *testing.T, alg sched.Algorithm) {
		eng, err := engines.New(alg, net, pairs, engines.Config{})
		if err != nil {
			t.Fatal(err)
		}
		bank := state.NewBank(net, state.Policy{CarrySlots: 2})
		eng.AttachBank(bank)
		rng := NewRng(23)
		for s := 0; s < 8; s++ {
			res, err := eng.RunSlot(rng)
			if err != nil {
				t.Fatalf("slot %d: %v", s, err)
			}
			if err := bank.CheckConservation(); err != nil {
				t.Fatalf("slot %d: %v", s, err)
			}
			if err := CheckSlotResult(net, pairs, *res); err != nil {
				t.Errorf("slot %d: %v", s, err)
			}
		}
		// E2E attempts whole end-to-end segments, and a realized one is
		// immediately consumable as a connection — surplus segments are
		// rare by construction. The oracle holds the bank without ever
		// touching it. So the deposit assertion applies only to the
		// segmented engines.
		if alg != sched.E2E && alg != sched.Oracle && bank.State().Stats.Deposited == 0 {
			t.Errorf("%v never deposited into the bank over 8 slots", alg)
		}
	})
}
