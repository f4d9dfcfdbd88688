package sched_test

import (
	"reflect"
	"testing"

	"see/internal/chaos"
	"see/internal/engines"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/state"
	"see/internal/topo"
	"see/internal/xrand"
)

// runnerFixture builds an engine whose slots exercise every part of the
// shared Runner: chaos (outage, brownout, flap, decoherence), a bank, a
// fidelity floor, greedy swap order and a counting tracer.
func runnerFixture(t *testing.T, alg sched.Algorithm) (sched.Stateful, *sched.CountingTracer, *topo.Network) {
	t.Helper()
	cfg := topo.DefaultConfig()
	cfg.Nodes = 30
	net, err := topo.Generate(cfg, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 5, xrand.New(6))
	first := net.G.Neighbors(pairs[0].S)[0]
	plan := &chaos.FaultPlan{
		Seed:        9,
		NodeOutages: []chaos.Window{{ID: first.To, From: 3, To: 5}},
		Brownouts:   []chaos.Brownout{{Link: first.ID, Frac: 0.5, From: 0, To: 3}},
		Flaps:       []chaos.Flap{{Link: net.G.Neighbors(pairs[1].S)[0].ID, Period: 2, Duty: 0.5}},
		Decoherence: 0.1,
	}
	tr := sched.NewCountingTracer()
	eng, err := engines.New(alg, net, pairs, engines.Config{
		Workers:        1,
		Tracer:         tr,
		Faults:         plan,
		FidelityFloors: &qnet.FloorSpec{Default: 0.6},
		SwapOrder:      qnet.SwapOrderGreedy,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachBank(state.NewBank(net, state.Policy{CarrySlots: 2, Seed: 9}))
	return eng, tr, net
}

// TestRunnerReconciles drives SEE (own plan phase), REPS (none) and Contend
// (held recovery plan) through the Runner and reconciles the tracer's
// tallies with the slot results.
func TestRunnerReconciles(t *testing.T) {
	const slots = 8
	for _, alg := range []sched.Algorithm{sched.SEE, sched.REPS, sched.Contend} {
		t.Run(alg.String(), func(t *testing.T) {
			eng, tr, _ := runnerFixture(t, alg)
			rng := xrand.New(3)
			var sum sched.SlotResult
			for s := 0; s < slots; s++ {
				res, err := eng.RunSlot(rng)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.Bank().CheckConservation(); err != nil {
					t.Fatalf("slot %d: %v", s, err)
				}
				sum.Attempts += res.Attempts
				sum.SegmentsCreated += res.SegmentsCreated
				sum.Assembled += res.Assembled
				sum.Established += res.Established
				sum.FloorRejected += res.FloorRejected
			}
			c := tr.Counts()
			if c.Slots != slots || c.AttemptsReserved != sum.Attempts || c.SegmentsCreated != sum.SegmentsCreated ||
				c.ConnectionsAssembled != sum.Assembled || c.ConnectionsEstablished != sum.Established ||
				c.IncidentCount(sched.IncidentFloorReject) != sum.FloorRejected {
				t.Errorf("tracer %+v does not reconcile with slot totals %+v", c, sum)
			}
			if c.IncidentCount(sched.IncidentFault) == 0 || c.IncidentCount(sched.IncidentBankDeposit) == 0 {
				t.Errorf("fixture too quiet: %+v", c.Incidents)
			}
			wantPlan := slots
			if alg == sched.REPS {
				wantPlan = 0
			}
			if n := tr.PhaseLatency(sched.PhasePlan).N; n != wantPlan {
				t.Errorf("%d plan phases reported, want %d", n, wantPlan)
			}
			if n := tr.PhaseLatency(sched.PhaseStitch).N; n != slots {
				t.Errorf("%d stitch phases reported, want %d", n, slots)
			}
		})
	}
}

// TestRunnerRestore checks the Runner's checkpoint pair: a snapshot
// restores into a fresh twin that then continues identically, and every
// kind of rejected snapshot leaves the engine untouched.
func TestRunnerRestore(t *testing.T) {
	eng, _, net := runnerFixture(t, sched.Greedy)
	rng := xrand.NewStream(11)
	for s := 0; s < 4; s++ {
		if _, err := eng.RunSlot(rng.Rand()); err != nil {
			t.Fatal(err)
		}
	}
	st, err := eng.EngineState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Algorithm != sched.Greedy || st.Chaos == nil || st.Bank == nil {
		t.Fatalf("snapshot misses state: %+v", st)
	}

	twin, _, _ := runnerFixture(t, sched.Greedy)
	if err := twin.RestoreEngineState(st); err != nil {
		t.Fatal(err)
	}
	cur := rng.Cursor()
	want, err := eng.RunSlot(rng.Rand())
	if err != nil {
		t.Fatal(err)
	}
	got, err := twin.RunSlot(xrand.Restore(cur).Rand())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, *want) {
		t.Fatalf("restored twin diverged:\n got %+v\nwant %+v", *got, *want)
	}

	before, _ := eng.EngineState()
	bad := []*sched.EngineState{
		{Algorithm: sched.SEE, Chaos: st.Chaos, Bank: st.Bank},
		{Algorithm: sched.Greedy, Chaos: st.Chaos, Bank: &state.BankState{Entries: []state.BankedSegment{{A: 0, B: 1, Path: []int{0, 9999, 1}}}}},
		{Algorithm: sched.Greedy, Chaos: st.Chaos, Bank: &state.BankState{Entries: []state.BankedSegment{{A: -1, B: net.NumNodes()}}}},
	}
	for i, b := range bad {
		if err := eng.RestoreEngineState(b); err == nil {
			t.Errorf("bad snapshot %d restored", i)
		}
		if after, _ := eng.EngineState(); !reflect.DeepEqual(before, after) {
			t.Errorf("bad snapshot %d changed the engine state", i)
		}
	}

	// An engine without chaos rejects a snapshot that carries a fault phase.
	inert, err := engines.New(sched.Greedy, net, topo.ChooseSDPairs(net, 5, xrand.New(6)), engines.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inert.RestoreEngineState(&sched.EngineState{Algorithm: sched.Greedy, Chaos: st.Chaos}); err == nil {
		t.Error("inert engine accepted a chaos phase")
	}
	if err := inert.RestoreEngineState(nil); err != nil {
		t.Errorf("reset to the pre-first-slot state failed: %v", err)
	}
}
