package chaos

import (
	"reflect"
	"testing"

	"see/internal/segment"
	"see/internal/topo"
)

// snapshotPlan exercises every fault stream: outages, correlated cuts,
// brownouts, flaps, decoherence.
func snapshotPlan() *FaultPlan {
	return &FaultPlan{
		Seed:        99,
		NodeOutages: []Window{{ID: 2, From: 3, To: 6}},
		LinkOutages: []Window{{ID: 1, From: 5, To: 8}},
		DiscCuts:    []DiscCut{{X: 1000, Y: 500, R: 600, From: 4, To: 7}},
		Brownouts:   []Brownout{{Link: 0, Frac: 0.5, From: 2, To: 9}},
		Flaps:       []Flap{{Link: 5, Period: 2, Duty: 0.5, From: 1, To: 10}},
		Decoherence: 0.3,
	}
}

// drive runs the injector through one slot's worth of fault queries,
// returning the decisions so runs can be compared decision-for-decision
// (booleans rendered as 0/1, channel capacities and attempt grants as
// themselves).
func drive(in *Injector) []int {
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	var out []int
	in.BeginSlot()
	for v := 0; v < 4; v++ {
		out = append(out, b(in.NodeDown(v)))
	}
	for id := 0; id < 6; id++ {
		out = append(out, b(in.LinkDown(id)), in.ChannelCap(id))
	}
	// Consume brownout budget mid-slot; the grant sequence must reproduce.
	for k := 0; k < 3; k++ {
		out = append(out, in.CapAttempts(&segment.Candidate{EdgeIDs: []int{0}}, 1))
	}
	for k := 0; k < 5; k++ {
		out = append(out, b(in.SegmentDecohered()))
	}
	return out
}

// TestInjectorStateRestore asserts the kill/resume contract: restoring a
// mid-run snapshot into a fresh injector reproduces the remaining slots'
// decisions and final counts exactly.
func TestInjectorStateRestore(t *testing.T) {
	net, _ := topo.Motivation()
	const slots, split = 10, 4

	ref, err := NewInjector(snapshotPlan(), net)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]int
	var snap *InjectorState
	for s := 0; s < slots; s++ {
		if s == split {
			snap = ref.State()
		}
		dec := drive(ref)
		if s >= split {
			want = append(want, dec)
		}
	}
	if snap == nil || snap.Slot != split-1 {
		t.Fatalf("snapshot = %+v, want slot %d", snap, split-1)
	}

	resumed, err := NewInjector(snapshotPlan(), net)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if resumed.slot != split-1 {
		t.Fatalf("restored slot %d, want %d", resumed.slot, split-1)
	}
	for i := 0; i < slots-split; i++ {
		if got := drive(resumed); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("resumed slot %d decisions diverge:\n got %v\nwant %v", split+i, got, want[i])
		}
	}
	if resumed.Counts() != ref.Counts() {
		t.Fatalf("final counts diverge: resumed %+v, uninterrupted %+v", resumed.Counts(), ref.Counts())
	}
}

// TestInjectorRestoreDownSets checks the restored view reflects the
// snapshot slot's outages without double-counting them.
func TestInjectorRestoreDownSets(t *testing.T) {
	net, _ := topo.Motivation()
	in, err := NewInjector(snapshotPlan(), net)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s <= 3; s++ { // slot 3 is inside node 2's outage window
		in.BeginSlot()
	}
	countsBefore := in.Counts()
	snap := in.State()

	fresh, err := NewInjector(snapshotPlan(), net)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !fresh.NodeDown(2) {
		t.Error("restored injector lost node 2's outage")
	}
	if fresh.Counts() != countsBefore {
		t.Errorf("restore changed counts: %+v vs %+v", fresh.Counts(), countsBefore)
	}
}

// TestInjectorStateInert pins the inert-injector discipline: no state out,
// nil state in is fine, real state in is a mismatch.
func TestInjectorStateInert(t *testing.T) {
	net, _ := topo.Motivation()
	in, err := NewInjector(nil, net)
	if err != nil {
		t.Fatal(err)
	}
	if st := in.State(); st != nil {
		t.Fatalf("inert injector exported state %+v", st)
	}
	if err := in.Restore(nil); err != nil {
		t.Fatalf("inert Restore(nil): %v", err)
	}
	if err := in.Restore(&InjectorState{Slot: 3}); err == nil {
		t.Fatal("inert injector accepted fault state")
	}
	var nilIn *Injector
	if st := nilIn.State(); st != nil {
		t.Fatalf("nil injector exported state %+v", st)
	}
}

// TestInjectorRestoreNilResets asserts Restore(nil) rewinds an active
// injector to its pre-first-slot state.
func TestInjectorRestoreNilResets(t *testing.T) {
	net, _ := topo.Motivation()
	in, err := NewInjector(snapshotPlan(), net)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 6; s++ {
		drive(in)
	}
	if err := in.Restore(nil); err != nil {
		t.Fatal(err)
	}
	if in.slot != -1 || in.Counts().Total() != 0 {
		t.Fatalf("after Restore(nil): slot %d, counts %+v", in.slot, in.Counts())
	}
	fresh, _ := NewInjector(snapshotPlan(), net)
	for s := 0; s < 6; s++ {
		got, want := drive(in), drive(fresh)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("slot %d after reset diverges from fresh run", s)
		}
	}
}
