package see

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"see/internal/state"
	"see/internal/xrand"
)

// runSlots drives a scheduler for n slots from a fixed seed and returns the
// per-slot results.
func runSlots(t *testing.T, sc Scheduler, seed int64, n int) []SlotResult {
	t.Helper()
	rng := xrand.New(seed)
	out := make([]SlotResult, 0, n)
	for s := 0; s < n; s++ {
		res, err := sc.RunSlot(rng)
		if err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		out = append(out, *res.Clone())
	}
	return out
}

// TestCarryOverDisabledByteIdentical checks the disabled-path contract of
// DESIGN.md §6: a scheduler with CarryOver false — even with a non-default
// DecoherenceSlots left in the options — is byte-identical to one built
// with no options at all, for every algorithm including Greedy.
func TestCarryOverDisabledByteIdentical(t *testing.T) {
	net, pairs, err := GenerateNetwork(NetworkConfig{Nodes: 40}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range append(append([]Algorithm(nil), Algorithms...), Greedy) {
		t.Run(alg.String(), func(t *testing.T) {
			plainSC, err := NewScheduler(alg, net, pairs, nil)
			if err != nil {
				t.Fatal(err)
			}
			offSC, err := NewScheduler(alg, net, pairs, &SchedulerOptions{
				CarryOver:        false,
				DecoherenceSlots: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			plain := runSlots(t, plainSC, 77, 5)
			off := runSlots(t, offSC, 77, 5)
			if !reflect.DeepEqual(plain, off) {
				t.Fatalf("CarryOver=false changed results:\n%+v\nvs\n%+v", plain, off)
			}
			if b := offSC.Bank(); b != nil && (b.State().Stats != state.Stats{}) {
				t.Error("disabled carry-over accumulated bank stats")
			}
		})
	}
}

// TestCarryOverImprovesThroughput verifies the point of the bank: over a
// multi-slot run, carrying unconsumed segments forward establishes at least
// as many connections as the memoryless scheduler, and strictly more for
// this instance. It also checks the tracer's bank incidents reconcile with
// the bank's own stats.
func TestCarryOverImprovesThroughput(t *testing.T) {
	net, pairs, err := GenerateNetwork(NetworkConfig{Nodes: 50}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	const slots = 10
	total := func(rs []SlotResult) int {
		n := 0
		for _, r := range rs {
			n += r.Established
		}
		return n
	}

	for _, alg := range []Algorithm{SEE, Greedy} {
		t.Run(alg.String(), func(t *testing.T) {
			plainSC, err := NewScheduler(alg, net, pairs, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := NewCountingTracer()
			carrySC, err := NewScheduler(alg, net, pairs, &SchedulerOptions{
				CarryOver:        true,
				DecoherenceSlots: 2,
				Tracer:           tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			plain := total(runSlots(t, plainSC, 42, slots))
			carry := total(runSlots(t, carrySC, 42, slots))
			if carry < plain {
				t.Errorf("carry-over lost throughput: %d vs %d", carry, plain)
			}
			st := carrySC.Bank().State().Stats
			if st.Deposited == 0 || st.Withdrawn == 0 {
				t.Fatalf("bank never cycled: %+v", st)
			}
			c := tr.Counts()
			if got := c.IncidentCount(IncidentBankDeposit); got != st.Deposited {
				t.Errorf("deposit incidents %d != bank stat %d", got, st.Deposited)
			}
			if got := c.IncidentCount(IncidentBankWithdraw); got != st.Withdrawn {
				t.Errorf("withdraw incidents %d != bank stat %d", got, st.Withdrawn)
			}
			if got := c.IncidentCount(IncidentBankDecohered); got != st.Expired+st.Decohered {
				t.Errorf("decohere incidents %d != bank losses %d", got, st.Expired+st.Decohered)
			}
		})
	}

	// The SEE instance above is known to improve strictly; pin that so the
	// carry path cannot silently become a no-op.
	plainSC, _ := NewScheduler(SEE, net, pairs, nil)
	carrySC, _ := NewScheduler(SEE, net, pairs, &SchedulerOptions{CarryOver: true, DecoherenceSlots: 2})
	if p, c := total(runSlots(t, plainSC, 42, slots)), total(runSlots(t, carrySC, 42, slots)); c <= p {
		t.Errorf("SEE carry-over did not strictly improve: %d vs %d", c, p)
	}
}

// conservationScheduler wraps a carry-over scheduler and checks the bank's
// memory-accounting invariants after every slot.
type conservationScheduler struct {
	Scheduler
	t *testing.T
	// checked counts the slots whose invariants were verified.
	checked int
}

func (c *conservationScheduler) RunSlot(rng *rand.Rand) (*SlotResult, error) {
	res, err := c.Scheduler.RunSlot(rng)
	if err == nil {
		if cerr := c.Bank().CheckConservation(); cerr != nil {
			c.t.Fatalf("slot %d: %v", c.checked, cerr)
		}
		c.checked++
	}
	return res, err
}

// TestCarryConservation serves a fault-injected 50-slot request workload
// and asserts, after every slot, that the banked memory units at each node
// reconcile with the banked entries and never exceed the node's memory
// size m_u.
func TestCarryConservation(t *testing.T) {
	net, pairs, err := GenerateNetwork(NetworkConfig{Nodes: 40, Memory: 4}, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaultSpec("seed=13;node=3@10-20;link=2@25-;decohere=0.15")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScheduler(SEE, net, pairs, &SchedulerOptions{
		CarryOver:        true,
		DecoherenceSlots: 3,
		Faults:           plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := &conservationScheduler{Scheduler: sc, t: t}
	cfg, err := ParseArrivalSpec("poisson;rate=12;users=8;mix=0/0/1;deadline=50/50/50;max-active=160")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 5
	srv, err := NewTrafficServer(wrapped, len(pairs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Run(50, nil); err != nil {
		t.Fatal(err)
	}
	if wrapped.checked != 50 {
		t.Fatalf("conservation checked on %d slots, want 50", wrapped.checked)
	}
	if carry := wrapped.Bank().State().Stats; carry.Deposited == 0 {
		t.Errorf("workload never banked a segment: %+v", carry)
	}
}

// TestCarryDeterministic runs the same carry-over configuration twice and
// expects identical slot results: bank survival is hashed from the policy
// seed, never drawn from the engine rng.
func TestCarryDeterministic(t *testing.T) {
	net, pairs, err := GenerateNetwork(NetworkConfig{Nodes: 40}, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaultSpec("seed=21;decohere=0.2")
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range append(append([]Algorithm(nil), Algorithms...), Greedy) {
		t.Run(alg.String(), func(t *testing.T) {
			run := func() []SlotResult {
				sc, err := NewScheduler(alg, net, pairs, &SchedulerOptions{
					CarryOver:        true,
					DecoherenceSlots: 2,
					Faults:           plan,
				})
				if err != nil {
					t.Fatal(err)
				}
				return runSlots(t, sc, 31, 6)
			}
			if a, b := run(), run(); !reflect.DeepEqual(a, b) {
				t.Fatalf("carry-over run not deterministic:\n%+v\nvs\n%+v", a, b)
			}
		})
	}
}

// TestCarryResilientBankSurvivesDegradation forces the degradation ladder
// (impossible LP budget) under carry-over: the greedy fallback must serve
// the slots AND keep banking segments through the same bank.
func TestCarryResilientBankSurvivesDegradation(t *testing.T) {
	net, pairs, err := GenerateNetwork(NetworkConfig{Nodes: 40}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewCountingTracer()
	sc, err := NewScheduler(SEE, net, pairs, &SchedulerOptions{
		SlotBudget:       time.Nanosecond,
		CarryOver:        true,
		DecoherenceSlots: 2,
		Tracer:           tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	runSlots(t, sc, 9, 5)
	if got := tr.Counts().IncidentCount(IncidentDegraded); got != 5 {
		t.Fatalf("degraded incidents = %d, want 5", got)
	}
	st := sc.Bank().State().Stats
	if st.Deposited == 0 {
		t.Errorf("degraded slots never banked a segment: %+v", st)
	}
}

// TestExperimentMultiSlotCarry covers the harness plumbing: Slots=1 is
// bit-identical to the pre-Slots harness default, and a multi-slot
// carry-over experiment is deterministic across worker counts.
func TestExperimentMultiSlotCarry(t *testing.T) {
	base := ExperimentParams{NetworkConfig: NetworkConfig{Nodes: 30}, SDPairs: 4, Trials: 3, Seed: 11}

	oneSlot := base
	oneSlot.Slots = 1
	r0, err := RunExperiment(base)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunExperiment(oneSlot)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		if r0[alg].MeanThroughput != r1[alg].MeanThroughput {
			t.Errorf("%v: Slots=1 differs from default: %v vs %v",
				alg, r0[alg].MeanThroughput, r1[alg].MeanThroughput)
		}
	}

	multi := base
	multi.Slots = 5
	multi.CarryOver = true
	multi.DecoherenceSlots = 2
	serial := multi
	serial.Workers = 1
	rm, err := RunExperiment(multi)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunExperiment(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		if rm[alg].MeanThroughput != rs[alg].MeanThroughput {
			t.Errorf("%v: carry-over experiment differs across worker counts: %v vs %v",
				alg, rm[alg].MeanThroughput, rs[alg].MeanThroughput)
		}
	}
}
