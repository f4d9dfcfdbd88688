package chaos

import (
	"math"
	"strings"
	"testing"

	"see/internal/topo"
)

func TestParseSpecRoundTrip(t *testing.T) {
	specs := []string{
		"seed=7;node=3@2-5;link=10@1-;decohere=0.02",
		"node=0@0-1",
		"seed=42;decohere=1",
	}
	for _, s := range specs {
		p, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		q, err := ParseSpec(p.String())
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", p.String(), s, err)
		}
		if p.String() != q.String() {
			t.Errorf("round trip: %q -> %q", p.String(), q.String())
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"frob=1",         // unknown key
		"loss=0.5",       // unknown key: message loss is not modelled
		"node=x@1-2",     // non-numeric id
		"decohere=1.5",   // probability out of range
		"decohere=abc",   // non-numeric probability
		"decohere=-0.1",  // negative probability
		"node=1@5-2",     // empty window
		"seed=notanint",  // bad seed
		"node=1@a-b",     // bad window bounds
		"link=2@3-3",     // empty window (To == From)
		";;node=1@@1-2;", // mangled separators
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
}

func TestWindowCovers(t *testing.T) {
	w := Window{ID: 1, From: 2, To: 5}
	for slot, want := range map[int]bool{0: false, 1: false, 2: true, 4: true, 5: false, 9: false} {
		if got := w.Covers(slot); got != want {
			t.Errorf("Covers(%d) = %v, want %v", slot, got, want)
		}
	}
	open := Window{ID: 1, From: 3}
	if open.Covers(2) || !open.Covers(3) || !open.Covers(1000) {
		t.Error("open-ended window wrong")
	}
}

func TestValidateAgainstNetwork(t *testing.T) {
	net, _ := topo.Motivation()
	ok := &FaultPlan{NodeOutages: []Window{{ID: 0, From: 0}}, Decoherence: 0.1}
	if err := ok.Validate(net.NumNodes(), net.NumLinks()); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	for _, p := range []*FaultPlan{
		{NodeOutages: []Window{{ID: net.NumNodes(), From: 0}}},
		{LinkOutages: []Window{{ID: -1, From: 0}}},
		{Decoherence: 2},
		{Decoherence: -1},
	} {
		if err := p.Validate(net.NumNodes(), net.NumLinks()); err == nil {
			t.Errorf("invalid plan %v accepted", p)
		}
	}
	if _, err := NewInjector(&FaultPlan{NodeOutages: []Window{{ID: 99, From: 0}}}, net); err == nil {
		t.Error("NewInjector accepted out-of-range node")
	}
}

func TestZeroPlanIsInert(t *testing.T) {
	net, _ := topo.Motivation()
	for _, plan := range []*FaultPlan{nil, {}} {
		in, err := NewInjector(plan, net)
		if err != nil {
			t.Fatalf("NewInjector: %v", err)
		}
		if in.Active() {
			t.Fatal("zero plan active")
		}
		in.BeginSlot()
		if in.NodeDown(0) || in.LinkDown(0) || in.SegmentDecohered() {
			t.Error("zero plan injected a fault")
		}
		if in.Counts().Total() != 0 {
			t.Errorf("zero plan counted faults: %+v", in.Counts())
		}
	}
	// A nil *Injector is safe everywhere (engines call it unconditionally).
	var nilIn *Injector
	if nilIn.Active() || nilIn.SegmentDecohered() {
		t.Error("nil injector injected a fault")
	}
}

func TestNodeCrashTakesIncidentLinksDown(t *testing.T) {
	net, _ := topo.Motivation()
	const victim = 1
	in, err := NewInjector(&FaultPlan{NodeOutages: []Window{{ID: victim, From: 1, To: 3}}}, net)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	links := net.IncidentLinks(victim)
	if len(links) == 0 {
		t.Fatal("victim has no links")
	}
	// Slot 0: before the window.
	in.BeginSlot()
	if in.NodeDown(victim) {
		t.Error("node down before window")
	}
	// Slots 1 and 2: inside.
	for s := 1; s <= 2; s++ {
		in.BeginSlot()
		if !in.NodeDown(victim) {
			t.Errorf("slot %d: node not down", s)
		}
		for _, l := range links {
			if !in.LinkDown(l) {
				t.Errorf("slot %d: incident link %d not down", s, l)
			}
		}
	}
	// Slot 3: recovered.
	in.BeginSlot()
	if in.NodeDown(victim) || in.LinkDown(links[0]) {
		t.Error("node or link still down after recovery")
	}
	for v := range in.downNode {
		if in.NodeDown(v) {
			t.Errorf("node %d down after recovery", v)
		}
	}
}

func TestHashStreamsDeterministicAndSeedSensitive(t *testing.T) {
	net, _ := topo.Motivation()
	run := func(seed int64) (deco []bool) {
		in, err := NewInjector(&FaultPlan{Seed: seed, Decoherence: 0.3}, net)
		if err != nil {
			t.Fatalf("NewInjector: %v", err)
		}
		in.BeginSlot()
		for i := 0; i < 200; i++ {
			deco = append(deco, in.SegmentDecohered())
		}
		return deco
	}
	c1 := run(7)
	c2 := run(7)
	c3 := run(8)
	same := func(a, b []bool) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(c1, c2) {
		t.Fatal("same seed produced different fault streams")
	}
	if same(c1, c3) {
		t.Fatal("different seeds produced identical fault streams (200 draws at p=0.3)")
	}
	count := func(a []bool) (n int) {
		for _, v := range a {
			if v {
				n++
			}
		}
		return
	}
	// 200 draws at p=0.3: expect roughly 60, allow a wide deterministic band.
	if n := count(c1); n < 30 || n > 90 {
		t.Errorf("decoherence rate off: %d/200 at p=0.3", n)
	}
}

func TestStringZeroPlan(t *testing.T) {
	var p *FaultPlan
	if s := p.String(); s != "" {
		t.Errorf("nil plan String() = %q", s)
	}
	if !p.IsZero() || !(&FaultPlan{Seed: 5}).IsZero() {
		t.Error("IsZero wrong")
	}
	got := (&FaultPlan{Seed: 3, Decoherence: 0.25}).String()
	if !strings.Contains(got, "seed=3") || !strings.Contains(got, "decohere=0.25") {
		t.Errorf("String() = %q", got)
	}
}

// NodeDown reports whether a node is crashed in the current slot.
func (in *Injector) NodeDown(v int) bool {
	return in.Active() && in.downNode[v]
}

// LinkDown reports whether a link is down in the current slot (directly, or
// because an endpoint crashed).
func (in *Injector) LinkDown(id int) bool {
	return in.Active() && in.downLink[id]
}

// ChannelCap returns the number of channels link id can offer in the
// current slot: 0 when the link is down, the brownout budget when a
// brownout covers the slot, the full capacity otherwise. A nil injector
// reports math.MaxInt ("no cap"); querying mid-slot reflects the budget
// already consumed by CapAttempts.
func (in *Injector) ChannelCap(id int) int {
	if in == nil {
		return math.MaxInt
	}
	if !in.active {
		return in.net.Channels[id]
	}
	if in.downLink[id] {
		return 0
	}
	if in.brownLeft[id] >= 0 {
		return in.brownLeft[id]
	}
	return in.net.Channels[id]
}
