package chaos

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"see/internal/segment"
	"see/internal/topo"
)

// motivNet returns the Motivation fixture with the channel tables widened
// so brownouts have something to take away (the seed fixture is 1 channel
// per link).
func motivNet(t *testing.T) *topo.Network {
	t.Helper()
	net, _ := topo.Motivation()
	for i := range net.Channels {
		net.Channels[i] = 4
	}
	return net
}

func TestCorrelatedSpecRoundTrip(t *testing.T) {
	specs := []string{
		"cut:100,200,50@2-5",
		"cut:!0,0,1000",
		"brown:3,0.5@1-4",
		"brown:!2,0.25",
		"flap:1,4,0.5@0-8",
		"flap:!0,3,0.75@2-",
		"seed=9;node=1@1-2;cut:10,20,5@1-3;brown:0,0.5@4-6;flap:2,2,0.5@1-;decohere=0.1",
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
		if !reflect.DeepEqual(p, q) {
			t.Errorf("round trip of %q diverged:\n got %+v\nwant %+v", s, q, p)
		}
		if p.String() != q.String() {
			t.Errorf("String not a fixed point: %q -> %q", p.String(), q.String())
		}
	}
}

func TestCorrelatedSpecErrors(t *testing.T) {
	bad := map[string]string{
		"cut:1,2@1-3":                      "want cut:x,y,r",
		"cut:a,b,c":                        "",
		"cut:1,2,-5":                       "radius",
		"cut:1,2,NaN":                      "",
		"brown:1":                          "want brown:link,frac",
		"brown:1,1.5":                      "fraction",
		"brown:1,-0.1":                     "fraction",
		"brown:1,NaN":                      "fraction",
		"brown:x,0.5":                      "",
		"flap:1,4":                         "want flap:link,period,duty",
		"flap:1,0,0.5":                     "period",
		"flap:1,4,1.5":                     "duty",
		"flap:1,4,NaN":                     "duty",
		"cut:1,2,3@5-2":                    "window",
		"brown:1,0.5@1-3;brown:1,0.25@2-6": "overlapping",
		"flap:2,4,0.5@0-;flap:2,2,0.5@9-":  "overlapping",
		"node=1@1-2,cut:1,2,3":             "separated by ';'",
	}
	for s, frag := range bad {
		_, err := ParseSpec(s)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
			continue
		}
		if frag != "" && !strings.Contains(err.Error(), frag) {
			t.Errorf("ParseSpec(%q) error %q does not mention %q", s, err, frag)
		}
	}
	// Non-overlapping windows on the same link stay legal, as do
	// overlapping windows on different links.
	for _, s := range []string{
		"brown:1,0.5@1-3;brown:1,0.25@3-6",
		"brown:1,0.5@1-3;brown:2,0.25@2-6",
		"flap:1,4,0.5@0-4;flap:1,2,0.5@4-8",
	} {
		if _, err := ParseSpec(s); err != nil {
			t.Errorf("ParseSpec(%q): %v", s, err)
		}
	}
}

func TestDiscLinks(t *testing.T) {
	net, _ := topo.Motivation()
	// Link 0 is (0,2): midpoint (500, 750). A tight disc catches only it.
	got := DiscLinks(net, 500, 750, 10)
	if !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("tight disc = %v, want [0]", got)
	}
	// A disc covering the whole layout catches every link.
	got = DiscLinks(net, 1500, 500, 1e6)
	if len(got) != net.NumLinks() {
		t.Errorf("giant disc = %v, want all %d links", got, net.NumLinks())
	}
	// An empty region catches none.
	if got := DiscLinks(net, -9000, -9000, 10); len(got) != 0 {
		t.Errorf("remote disc = %v, want none", got)
	}
}

func TestDiscCutFailsLinksTogether(t *testing.T) {
	net := motivNet(t)
	// Disc around node 2's location (1000, 500) wide enough to cover the
	// midpoints of its incident links.
	cut := DiscCut{X: 1000, Y: 500, R: 600, From: 1, To: 3}
	links := DiscLinks(net, cut.X, cut.Y, cut.R)
	if len(links) < 2 {
		t.Fatalf("fixture disc covers %v, want >= 2 links", links)
	}
	in, err := NewInjector(&FaultPlan{DiscCuts: []DiscCut{cut}}, net)
	if err != nil {
		t.Fatal(err)
	}
	in.BeginSlot() // slot 0: before the window
	for _, id := range links {
		if in.LinkDown(id) {
			t.Errorf("slot 0: link %d down before the cut", id)
		}
	}
	in.BeginSlot() // slot 1: inside
	for _, id := range links {
		if !in.LinkDown(id) {
			t.Errorf("slot 1: link %d survived the cut", id)
		}
		if in.ChannelCap(id) != 0 {
			t.Errorf("slot 1: cut link %d has channels", id)
		}
	}
	if got := in.Counts().CutLinkSlotsDown; got != len(links) {
		t.Errorf("CutLinkSlotsDown = %d, want %d", got, len(links))
	}
	in.BeginSlot() // slot 2: still inside
	in.BeginSlot() // slot 3: recovered
	for _, id := range links {
		if in.LinkDown(id) {
			t.Errorf("slot 3: link %d still down", id)
		}
	}
	if got := in.Counts().CutLinkSlotsDown; got != 2*len(links) {
		t.Errorf("total CutLinkSlotsDown = %d, want %d", got, 2*len(links))
	}
}

func TestFlapSchedule(t *testing.T) {
	f := Flap{Link: 0, Period: 4, Duty: 0.5, From: 2, To: 10}
	// Duty 0.5 of period 4: up the first 2 slots of each cycle (counted
	// from the window start), down the last 2.
	want := map[int]bool{
		0: false, 1: false, // before the window
		2: false, 3: false, 4: true, 5: true, // first cycle
		6: false, 7: false, 8: true, 9: true, // second cycle
		10: false, 11: false, // after the window
	}
	for slot, down := range want {
		if got := f.DownAt(slot); got != down {
			t.Errorf("DownAt(%d) = %v, want %v", slot, got, down)
		}
	}
	// Duty 0 is always down inside the window; duty 1 never is.
	if !(Flap{Link: 0, Period: 3, Duty: 0, From: 0}).DownAt(5) {
		t.Error("duty-0 flap was up")
	}
	if (Flap{Link: 0, Period: 3, Duty: 1, From: 0}).DownAt(5) {
		t.Error("duty-1 flap was down")
	}

	net := motivNet(t)
	in, err := NewInjector(&FaultPlan{Flaps: []Flap{{Link: 0, Period: 2, Duty: 0.5, From: 0, To: 4}}}, net)
	if err != nil {
		t.Fatal(err)
	}
	downs := 0
	for slot := 0; slot < 6; slot++ {
		in.BeginSlot()
		if in.LinkDown(0) {
			downs++
		}
	}
	if downs != 2 {
		t.Errorf("flap produced %d down slots over 6, want 2", downs)
	}
	if got := in.Counts().FlapSlotsDown; got != 2 {
		t.Errorf("FlapSlotsDown = %d, want 2", got)
	}
}

func TestBrownoutChannelCapAndCapAttempts(t *testing.T) {
	net := motivNet(t) // 4 channels per link
	in, err := NewInjector(&FaultPlan{Brownouts: []Brownout{{Link: 1, Frac: 0.5, From: 1, To: 2}}}, net)
	if err != nil {
		t.Fatal(err)
	}
	in.BeginSlot() // slot 0: before the window
	if got := in.ChannelCap(1); got != 4 {
		t.Errorf("slot 0: ChannelCap = %d, want full 4", got)
	}
	in.BeginSlot() // slot 1: browned to 2 of 4
	if got := in.ChannelCap(1); got != 2 {
		t.Errorf("slot 1: ChannelCap = %d, want 2", got)
	}
	// A candidate crossing the browned link wants 4 attempts: 2 granted,
	// 2 denied; a later candidate finds the budget exhausted.
	browned := &segment.Candidate{EdgeIDs: []int{0, 1}}
	if got := in.CapAttempts(browned, 4); got != 2 {
		t.Errorf("CapAttempts = %d, want 2", got)
	}
	if got := in.CapAttempts(browned, 3); got != 0 {
		t.Errorf("second CapAttempts = %d, want 0 (budget spent)", got)
	}
	if got := in.Counts().BrownoutAttemptsLost; got != 2+3 {
		t.Errorf("BrownoutAttemptsLost = %d, want 5", got)
	}
	// Candidates avoiding the browned link are untouched and consume no
	// budget accounting.
	clean := &segment.Candidate{EdgeIDs: []int{3, 4}}
	if got := in.CapAttempts(clean, 7); got != 7 {
		t.Errorf("clean CapAttempts = %d, want 7", got)
	}
	in.BeginSlot() // slot 2: window over, budget reset to full
	if got := in.ChannelCap(1); got != 4 {
		t.Errorf("slot 2: ChannelCap = %d, want full 4", got)
	}
	// A nil injector never caps.
	var nilIn *Injector
	if got := nilIn.CapAttempts(browned, 9); got != 9 {
		t.Errorf("nil CapAttempts = %d, want 9", got)
	}
	if nilIn.ChannelCap(0) != math.MaxInt {
		t.Error("nil ChannelCap is not MaxInt")
	}
}

func TestForecastAnnouncedVsSurprise(t *testing.T) {
	net := motivNet(t)
	plan := &FaultPlan{
		NodeOutages: []Window{{ID: 4, From: 50, To: 60}},
		LinkOutages: []Window{{ID: 0, From: 10, To: 20, Surprise: true}},
		Brownouts:   []Brownout{{Link: 1, Frac: 0.5, From: 5, To: 9}},
		Flaps:       []Flap{{Link: 2, Period: 4, Duty: 0.75, From: 0, To: 100}},
	}
	fc := plan.Forecast(net)
	if fc.IsZero() {
		t.Fatal("forecast is zero")
	}
	if !fc.deadNode[4] || fc.deadNode[0] {
		t.Error("deadNode wrong")
	}
	if fc.deadLink[0] {
		t.Error("surprise link outage leaked into the forecast")
	}
	for _, id := range net.IncidentLinks(4) {
		if !fc.deadLink[id] {
			t.Errorf("link %d incident to dead node 4 not dead", id)
		}
	}
	if got := fc.Channels(1, 4); got != 2 {
		t.Errorf("browned Channels(1, 4) = %d, want 2", got)
	}
	if got := fc.Channels(2, 4); got != 3 {
		t.Errorf("flapping Channels(2, 4) = %d, want 3 (duty 0.75)", got)
	}
	if got := fc.Memory(4, 5); got != 0 {
		t.Errorf("dead node Memory = %d, want 0", got)
	}
	if got := fc.Memory(0, 5); got != 5 {
		t.Errorf("healthy node Memory = %d, want 5", got)
	}
	// Avoided: node 4 + its incident links + browned link 1 + flapping
	// link 2 (minus any overlap with the incident set).
	if fc.Avoided() < 4 {
		t.Errorf("Avoided = %d, want >= 4", fc.Avoided())
	}

	// An all-surprise plan forecasts nothing.
	surprise := &FaultPlan{LinkOutages: []Window{{ID: 0, From: 1, To: 2, Surprise: true}}}
	if fc := surprise.Forecast(net); !fc.IsZero() {
		t.Error("all-surprise plan has a non-zero forecast")
	}
	// The nil forecast reports full capacity everywhere.
	var nilFc *Forecast
	if nilFc.Channels(0, 4) != 4 || nilFc.Memory(0, 3) != 3 || nilFc.Avoided() != 0 {
		t.Error("nil forecast is not the zero view")
	}
	// A zero up-cycle flap forecasts the link dead outright.
	dead := &FaultPlan{Flaps: []Flap{{Link: 3, Period: 5, Duty: 0, From: 0, To: 10}}}
	if fc := dead.Forecast(net); !fc.deadLink[3] {
		t.Error("duty-0 flap not forecast dead")
	}
}

func TestInjectorForecastCached(t *testing.T) {
	net := motivNet(t)
	in, err := NewInjector(&FaultPlan{Brownouts: []Brownout{{Link: 0, Frac: 0.5, From: 0, To: 5}}}, net)
	if err != nil {
		t.Fatal(err)
	}
	if in.Forecast() == nil || in.Forecast() != in.Forecast() {
		t.Error("injector forecast not built or not cached")
	}
	inert, err := NewInjector(&FaultPlan{}, net)
	if err != nil {
		t.Fatal(err)
	}
	if inert.Forecast() != nil {
		t.Error("inert injector has a forecast")
	}
}
