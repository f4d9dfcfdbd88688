package engines

import (
	"reflect"
	"testing"
	"time"

	"see/internal/chaos"
	"see/internal/sched"
	"see/internal/state"
	"see/internal/topo"
	"see/internal/xrand"
)

// allAlgorithms is the paper trio plus the repo-grown greedy baseline.
var allAlgorithms = append(append([]sched.Algorithm(nil), sched.Algorithms...), sched.Greedy)

// runSlots builds the engine and returns every SlotResult from a fixed
// seed schedule.
func runSlots(t *testing.T, alg sched.Algorithm, net *topo.Network, pairs []topo.SDPair, cfg Config, slots int) []sched.SlotResult {
	t.Helper()
	eng, err := New(alg, net, pairs, cfg)
	if err != nil {
		t.Fatalf("New(%v): %v", alg, err)
	}
	return runEngine(t, eng, slots)
}

// runEngine returns every SlotResult of eng from runSlots' seed schedule.
func runEngine(t *testing.T, eng sched.Engine, slots int) []sched.SlotResult {
	t.Helper()
	alg := eng.Algorithm()
	rng := xrand.New(99)
	out := make([]sched.SlotResult, 0, slots)
	for s := 0; s < slots; s++ {
		res, err := eng.RunSlot(rng)
		if err != nil {
			t.Fatalf("RunSlot(%v): %v", alg, err)
		}
		out = append(out, *res.Clone())
	}
	return out
}

// TestZeroFaultPlanByteIdentical is the chaos determinism contract: with a
// zero FaultPlan every engine must produce results byte-identical to a run
// with no chaos layer at all — the injector may not consume randomness or
// perturb any code path when it has nothing to inject.
func TestZeroFaultPlanByteIdentical(t *testing.T) {
	net, pairs := topo.Motivation()
	genCfg := topo.DefaultConfig()
	genCfg.Nodes = 40
	gen, err := topo.Generate(genCfg, xrand.New(5))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	genPairs := topo.ChooseSDPairs(gen, 6, xrand.New(6))

	nets := []struct {
		name  string
		net   *topo.Network
		pairs []topo.SDPair
	}{
		{"motivation", net, pairs},
		{"waxman40", gen, genPairs},
	}
	for _, tc := range nets {
		for _, alg := range allAlgorithms {
			t.Run(tc.name+"/"+alg.String(), func(t *testing.T) {
				plain := runSlots(t, alg, tc.net, tc.pairs, Config{}, 8)
				if zero := runSlots(t, alg, tc.net, tc.pairs, Config{Faults: &chaos.FaultPlan{}}, 8); !reflect.DeepEqual(plain, zero) {
					t.Fatalf("zero fault plan changed results:\nplain: %+v\nzero:  %+v", plain, zero)
				}
				// Build around an injector held here, to read its counters.
				inj, err := chaos.NewInjector(&chaos.FaultPlan{}, tc.net)
				if err != nil {
					t.Fatalf("NewInjector: %v", err)
				}
				eng, err := build(nil, alg, tc.net, tc.pairs, Config{}, inj)
				if err != nil {
					t.Fatalf("build(%v): %v", alg, err)
				}
				chaotic := runEngine(t, eng, 8)
				if !reflect.DeepEqual(plain, chaotic) {
					t.Fatalf("zero fault plan changed results:\nplain:   %+v\nchaotic: %+v", plain, chaotic)
				}
				if inj.Counts().Total() != 0 {
					t.Errorf("zero plan counted faults: %+v", inj.Counts())
				}
			})
		}
	}
}

// TestFaultsReportedThroughTracer checks that a plan which certainly fires
// (every node down) is both counted by the injector and surfaced as
// IncidentFault through the tracer, and that the slot still completes.
func TestFaultsReportedThroughTracer(t *testing.T) {
	net, pairs := topo.Motivation()
	plan := &chaos.FaultPlan{}
	for v := 0; v < net.NumNodes(); v++ {
		plan.NodeOutages = append(plan.NodeOutages, chaos.Window{ID: v, From: 0})
	}
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			inj, err := chaos.NewInjector(plan, net)
			if err != nil {
				t.Fatalf("NewInjector: %v", err)
			}
			tr := sched.NewCountingTracer()
			eng, err := build(nil, alg, net, pairs, Config{Tracer: tr}, inj)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			res, err := eng.RunSlot(xrand.New(1))
			if err != nil {
				t.Fatalf("RunSlot: %v", err)
			}
			if res.SegmentsCreated != 0 || res.Established != 0 {
				t.Errorf("all nodes down but created %d segments, established %d",
					res.SegmentsCreated, res.Established)
			}
			if inj.Counts().RoutesBlocked == 0 {
				t.Error("no routes blocked with every node down")
			}
			if tr.Counts().IncidentCount(sched.IncidentFault) == 0 {
				t.Error("faults not reported through tracer")
			}
		})
	}
}

// TestResilientDegradation forces the LP construction over an impossible
// budget: every slot must degrade to the greedy fallback, still attempt
// paths, and report the degradations and bounded retries via the tracer.
func TestResilientDegradation(t *testing.T) {
	net, pairs := topo.Motivation()
	tr := sched.NewCountingTracer()
	r, err := NewResilient(sched.SEE, net, pairs, Config{Tracer: tr, SlotBudget: time.Nanosecond})
	if err != nil {
		t.Fatalf("NewResilient: %v", err)
	}
	if got := r.Algorithm(); got != sched.SEE {
		t.Errorf("Algorithm() = %v, want SEE", got)
	}
	rng := xrand.New(4)
	const slots = 6
	attempted := 0
	for s := 0; s < slots; s++ {
		res, err := r.RunSlot(rng)
		if err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		attempted += res.Attempts
		if res.PlannedPaths == 0 {
			t.Errorf("slot %d: degraded slot planned no paths", s)
		}
	}
	if attempted == 0 {
		t.Error("no attempts across degraded slots")
	}
	c := tr.Counts()
	if got := c.IncidentCount(sched.IncidentDegraded); got != slots {
		t.Errorf("degraded incidents = %d, want %d", got, slots)
	}
	// Construction is tried on slots 0..maxConstructionRetries, and only
	// retries (not the first try) are incidents.
	if got := c.IncidentCount(sched.IncidentRetry); got != maxConstructionRetries {
		t.Errorf("retry incidents = %d, want %d", got, maxConstructionRetries)
	}
	if r.primary != nil || r.failures == 0 || r.lastErr == nil {
		t.Errorf("ladder: primary %v, %d failures, last error %v; want degraded with an error", r.primary, r.failures, r.lastErr)
	}
	if r.UpperBound() <= 0 {
		t.Errorf("fallback bound = %v, want > 0", r.UpperBound())
	}
}

// TestResilientHealthy checks the other side of the ladder: with a generous
// budget the resilient wrapper must behave exactly like the plain engine.
func TestResilientHealthy(t *testing.T) {
	net, pairs := topo.Motivation()
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			plain := runSlots(t, alg, net, pairs, Config{}, 5)
			tr := sched.NewCountingTracer()
			r, err := NewResilient(alg, net, pairs, Config{Tracer: tr, SlotBudget: time.Minute})
			if err != nil {
				t.Fatalf("NewResilient: %v", err)
			}
			rng := xrand.New(99)
			for s := 0; s < 5; s++ {
				res, err := r.RunSlot(rng)
				if err != nil {
					t.Fatalf("slot %d: %v", s, err)
				}
				if got := *res.Clone(); !reflect.DeepEqual(got, plain[s]) {
					t.Fatalf("slot %d diverged from plain engine:\nplain:     %+v\nresilient: %+v", s, plain[s], got)
				}
			}
			c := tr.Counts()
			if c.IncidentCount(sched.IncidentDegraded) != 0 || c.IncidentCount(sched.IncidentRetry) != 0 {
				t.Errorf("healthy run reported incidents: %+v", c.Incidents)
			}
			if r.primary == nil && r.failures > 0 {
				t.Error("healthy run reports degraded")
			}
		})
	}
}

// announcedPlan is a fault plan that is entirely announced: a dead link, a
// browned link and a flapping link, all windows covering every slot the
// tests run.
func announcedPlan(t *testing.T, net *topo.Network) *chaos.FaultPlan {
	t.Helper()
	plan := &chaos.FaultPlan{
		Seed:        5,
		LinkOutages: []chaos.Window{{ID: 0, From: 0}},
		Brownouts:   []chaos.Brownout{{Link: 1, Frac: 0.5, From: 0}},
		Flaps:       []chaos.Flap{{Link: 2, Period: 4, Duty: 0.5, From: 0}},
	}
	if err := plan.Validate(net.NumNodes(), net.NumLinks()); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return plan
}

// TestForecastTables checks the translation from the injector's announced
// forecast to planning capacity tables: dead links zeroed, browned links
// derated, flapping links scaled by duty, everything else untouched — and
// all-nil for an injector with nothing announced.
func TestForecastTables(t *testing.T) {
	net, _ := topo.Motivation()
	inj, err := chaos.NewInjector(announcedPlan(t, net), net)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	channels, memory, avoided := forecastTables(inj, net)
	if avoided == 0 {
		t.Error("announced plan but Avoided() = 0")
	}
	if channels[0] != 0 {
		t.Errorf("dead link 0: planning capacity %d, want 0", channels[0])
	}
	if want := net.Channels[1] / 2; channels[1] != want {
		t.Errorf("browned link 1: planning capacity %d, want %d", channels[1], want)
	}
	if channels[2] >= net.Channels[2] || channels[2] < 0 {
		t.Errorf("flapping link 2: planning capacity %d, want in [0, %d)", channels[2], net.Channels[2])
	}
	for id := 3; id < net.NumLinks(); id++ {
		if channels[id] != net.Channels[id] {
			t.Errorf("clean link %d: planning capacity %d, want %d", id, channels[id], net.Channels[id])
		}
	}
	for v, m := range memory {
		if m != net.Memory[v] {
			t.Errorf("node %d: planning memory %d, want %d (no node announced)", v, m, net.Memory[v])
		}
	}

	inert, err := chaos.NewInjector(&chaos.FaultPlan{}, net)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	if c, m, a := forecastTables(inert, net); c != nil || m != nil || a != 0 {
		t.Errorf("inert injector: forecastTables = (%v, %v, %d), want (nil, nil, 0)", c, m, a)
	}
	if c, m, a := forecastTables(nil, net); c != nil || m != nil || a != 0 {
		t.Errorf("nil injector: forecastTables = (%v, %v, %d), want (nil, nil, 0)", c, m, a)
	}
}

// TestFaultAwareBuilders constructs every registered engine against an
// announced fault plan and checks the registry labels survive the trip:
// each engine reports its own algorithm, the fault-aware variants report
// the forecast through IncidentForecastAvoid and the rest do not.
func TestFaultAwareBuilders(t *testing.T) {
	net, pairs := topo.Motivation()
	for _, alg := range List() {
		t.Run(alg.String(), func(t *testing.T) {
			tr := sched.NewCountingTracer()
			eng, err := New(alg, net, pairs, Config{Faults: announcedPlan(t, net), Tracer: tr})
			if err != nil {
				t.Fatalf("New(%v): %v", alg, err)
			}
			if got := eng.Algorithm(); got != alg {
				t.Errorf("Algorithm() = %v, want %v", got, alg)
			}
			if _, err := eng.RunSlot(xrand.New(3)); err != nil {
				t.Fatalf("RunSlot: %v", err)
			}
			avoided := tr.Counts().IncidentCount(sched.IncidentForecastAvoid)
			if alg.FaultAware() && avoided == 0 {
				t.Error("fault-aware engine reported no IncidentForecastAvoid")
			}
			if !alg.FaultAware() && avoided != 0 {
				t.Errorf("fault-blind engine reported IncidentForecastAvoid = %d", avoided)
			}
		})
	}
}

// TestResilientRestoreLadder round-trips a degraded ladder (fallback
// serving, primary still failing) into a fresh wrapper, and checks the
// snapshots a restore must reject or reset on.
func TestResilientRestoreLadder(t *testing.T) {
	net, pairs := topo.Motivation()
	build := func() *Resilient {
		r, err := NewResilient(sched.SEE, net, pairs, Config{SlotBudget: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		r.AttachBank(state.NewBank(net, state.Policy{CarrySlots: 2}))
		return r
	}
	r := build()
	stream := xrand.NewStream(8)
	for s := 0; s < 2; s++ {
		if _, err := r.RunSlot(stream.Rand()); err != nil {
			t.Fatal(err)
		}
	}
	st, err := r.EngineState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ladder == nil || !st.Ladder.FallbackBuilt || st.Ladder.PrimaryBuilt || st.Ladder.Failures != 2 {
		t.Fatalf("unexpected ladder %+v", st.Ladder)
	}
	resumed := build()
	if err := resumed.RestoreEngineState(st); err != nil {
		t.Fatal(err)
	}
	cur := stream.Cursor()
	want, err := r.RunSlot(stream.Rand())
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.RunSlot(xrand.Restore(cur).Rand())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, *want) {
		t.Errorf("restored ladder diverged:\n got %+v\nwant %+v", *got, *want)
	}

	if err := resumed.RestoreEngineState(&sched.EngineState{Algorithm: sched.SEE}); err == nil {
		t.Error("snapshot without ladder state restored")
	}
	if err := resumed.RestoreEngineState(&sched.EngineState{Algorithm: sched.REPS, Ladder: st.Ladder}); err == nil {
		t.Error("REPS snapshot restored into a SEE ladder")
	}
	if err := resumed.RestoreEngineState(nil); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if (resumed.primary == nil && resumed.failures > 0) || len(resumed.Bank().State().Entries) != 0 {
		t.Errorf("reset left %d failures without a primary and %d banked segments", resumed.failures, len(resumed.Bank().State().Entries))
	}
}
