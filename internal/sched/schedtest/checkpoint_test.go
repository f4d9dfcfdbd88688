package schedtest

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"see/internal/chaos"
	"see/internal/engines"
	"see/internal/sched"
	"see/internal/state"
	"see/internal/xrand"
)

// checkpointPlan exercises outages and decoherence so the snapshot carries
// non-trivial chaos phase.
func checkpointPlan() *chaos.FaultPlan {
	return &chaos.FaultPlan{
		Seed:        31,
		NodeOutages: []chaos.Window{{ID: 3, From: 2, To: 5}},
		Decoherence: 0.1,
	}
}

// jsonRoundTrip forces the snapshot through a serialize/deserialize cycle
// so a restore can never lean on live objects shared with the original
// engine — the situation a real kill/resume is in.
func jsonRoundTrip(t *testing.T, st *sched.EngineState) *sched.EngineState {
	t.Helper()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	out := &sched.EngineState{}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// runCheckpointProtocol runs the kill/resume invariant for one engine
// builder: run `slots` slots; at `split`, snapshot the engine state and the
// rng cursor; then restore both into a freshly built engine and assert the
// remaining slots are byte-identical to the uninterrupted run.
func runCheckpointProtocol(t *testing.T, build func(t *testing.T) sched.Stateful, seed int64, slots, split int) {
	t.Helper()
	ref := build(t)
	stream := xrand.NewStream(seed)
	var want []sched.SlotResult
	var snap *sched.EngineState
	var cur xrand.Cursor
	for s := 0; s < slots; s++ {
		if s == split {
			st, err := ref.EngineState()
			if err != nil {
				t.Fatalf("snapshot at slot %d: %v", s, err)
			}
			snap = st
			cur = stream.Cursor()
		}
		res, err := ref.RunSlot(stream.Rand())
		if err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		if s >= split {
			want = append(want, *res.Clone())
		}
	}

	resumed := build(t)
	if err := resumed.RestoreEngineState(jsonRoundTrip(t, snap)); err != nil {
		t.Fatalf("restore at slot %d: %v", split, err)
	}
	rstream := xrand.Restore(cur)
	for s := split; s < slots; s++ {
		res, err := resumed.RunSlot(rstream.Rand())
		if err != nil {
			t.Fatalf("resumed slot %d: %v", s, err)
		}
		if got := *res.Clone(); !reflect.DeepEqual(got, want[s-split]) {
			t.Fatalf("resumed slot %d diverged from the uninterrupted run:\n got %+v\nwant %+v",
				s, got, want[s-split])
		}
	}
	if rstream.Pos() != stream.Pos() {
		t.Errorf("resumed rng consumed %d draws, uninterrupted %d", rstream.Pos(), stream.Pos())
	}
}

// TestCheckpointRestoreByteIdentical is the kill/resume invariant for every
// registered engine, with chaos and carry-over live so the snapshot carries
// every state dimension. Splits cover the pre-first-slot snapshot and a
// mid-run one.
func TestCheckpointRestoreByteIdentical(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed+6)
	if err != nil {
		t.Fatal(err)
	}
	forEachEngine(t, func(t *testing.T, alg sched.Algorithm) {
		build := func(t *testing.T) sched.Stateful {
			t.Helper()
			eng, err := engines.New(alg, net, pairs, engines.Config{
				Faults:           checkpointPlan(),
				CarryOver:        true,
				DecoherenceSlots: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
		for _, split := range []int{0, 3} {
			t.Run(fmt.Sprintf("split=%d", split), func(t *testing.T) {
				runCheckpointProtocol(t, build, 29, 7, split)
			})
		}
	})
}

// TestResilientCheckpointRestore runs the same invariant for the sixth
// engine — the degradation-ladder wrapper — whose snapshot additionally
// carries the ladder position and whose restore rebuilds the primary
// without a wall-clock budget.
func TestResilientCheckpointRestore(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed+7)
	if err != nil {
		t.Fatal(err)
	}
	build := func(t *testing.T) sched.Stateful {
		t.Helper()
		r, err := engines.NewResilient(sched.SEE, net, pairs, engines.Config{Faults: checkpointPlan()})
		if err != nil {
			t.Fatal(err)
		}
		r.AttachBank(state.NewBank(net, state.Policy{CarrySlots: 2, Seed: 31}))
		return r
	}
	for _, split := range []int{0, 3} {
		t.Run(fmt.Sprintf("split=%d", split), func(t *testing.T) {
			runCheckpointProtocol(t, build, 37, 6, split)
		})
	}
}

// TestFailedRestoreLeavesEngineUntouched feeds every registered engine, and
// the degradation-ladder wrapper, a snapshot whose bank names a route no
// catalogue has. The restore must fail, the engine's state must read
// exactly as before, and the next slot must match a twin that was never
// asked to restore: validation happens before anything is committed.
func TestFailedRestoreLeavesEngineUntouched(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed+14)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, build func(t *testing.T) sched.Stateful) {
		eng, twin := build(t), build(t)
		rng, twinRng := NewRng(71), NewRng(71)
		// The rejected snapshot is an older one (after the first slot), so
		// a half-applied restore would visibly rewind the engine.
		var bad *sched.EngineState
		for s := 0; s < 3; s++ {
			if _, err := eng.RunSlot(rng); err != nil {
				t.Fatal(err)
			}
			if _, err := twin.RunSlot(twinRng); err != nil {
				t.Fatal(err)
			}
			if s == 0 {
				st, err := eng.EngineState()
				if err != nil {
					t.Fatal(err)
				}
				bad = jsonRoundTrip(t, st)
			}
		}
		before, err := eng.EngineState()
		if err != nil {
			t.Fatal(err)
		}
		inner := bad
		if inner.Inner != nil {
			inner = inner.Inner
		}
		if inner.Bank == nil {
			t.Fatalf("fixture state has no bank: %+v", inner)
		}
		inner.Bank.Entries = append(inner.Bank.Entries, state.BankedSegment{A: 0, B: 1, Path: []int{0, 9999, 1}})
		if err := eng.RestoreEngineState(bad); err == nil {
			t.Fatal("restore of an unknown banked route succeeded")
		}
		after, err := eng.EngineState()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("failed restore changed the engine state:\nbefore %+v\n after %+v", before, after)
		}
		got, err := eng.RunSlot(rng)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.RunSlot(twinRng)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, *want) {
			t.Errorf("slot after the failed restore diverged from the unrestored twin:\n got %+v\nwant %+v", *got, *want)
		}
	}
	bank := func() *state.Bank {
		return state.NewBank(net, state.Policy{CarrySlots: 2, Seed: checkpointPlan().Seed})
	}
	forEachEngine(t, func(t *testing.T, alg sched.Algorithm) {
		check(t, func(t *testing.T) sched.Stateful {
			eng, err := engines.New(alg, net, pairs, engines.Config{Faults: checkpointPlan()})
			if err != nil {
				t.Fatal(err)
			}
			eng.AttachBank(bank())
			return eng
		})
	})
	t.Run("Resilient", func(t *testing.T) {
		check(t, func(t *testing.T) sched.Stateful {
			r, err := engines.NewResilient(sched.SEE, net, pairs, engines.Config{Faults: checkpointPlan()})
			if err != nil {
				t.Fatal(err)
			}
			r.AttachBank(bank())
			return r
		})
	})
}

// TestCheckpointAlgorithmMismatch pins the configuration guard: state from
// one scheme must not restore into another.
func TestCheckpointAlgorithmMismatch(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed+8)
	if err != nil {
		t.Fatal(err)
	}
	see, err := engines.New(sched.SEE, net, pairs, engines.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := see.EngineState()
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := engines.New(sched.Greedy, net, pairs, engines.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := greedy.RestoreEngineState(st); err == nil {
		t.Fatal("Greedy engine accepted SEE state")
	}
}
