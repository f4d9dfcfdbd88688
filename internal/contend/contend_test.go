package contend

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/state"
	"see/internal/topo"
	"see/internal/xrand"
)

func buildInstance(t *testing.T, nodes, pairs int, seed int64) (*topo.Network, []topo.SDPair) {
	t.Helper()
	cfg := topo.DefaultConfig()
	cfg.Nodes = nodes
	return buildWith(t, cfg, pairs, seed)
}

// newEngine builds the engine the way engines.New does: SEE's row of the
// enumeration table in internal/engines (which imports this package), N_i
// from the planning memory.
func newEngine(net *topo.Network, pairs []topo.SDPair, opts Options) (*Engine, error) {
	seg := segment.Options{KPaths: 5, MaxSegmentHops: 10, MinProb: 0.05, MaxCandidatesPerPair: 3, Workers: opts.Workers}
	set, err := segment.Build(net, pairs, seg)
	if err != nil {
		return nil, err
	}
	return New(set, set.ConnCap(opts.PlanMemory), opts)
}

func buildWith(t *testing.T, cfg topo.Config, pairs int, seed int64) (*topo.Network, []topo.SDPair) {
	t.Helper()
	net, err := topo.Generate(cfg, xrand.New(seed))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return net, topo.ChooseSDPairs(net, pairs, xrand.New(seed+1))
}

func TestRunSlotInvariants(t *testing.T) {
	net, pairs := topo.Motivation()
	eng, err := newEngine(net, pairs, DefaultOptions())
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	if got := eng.Algorithm(); got != sched.Contend {
		t.Errorf("Algorithm() = %v, want Contend", got)
	}
	if eng.UpperBound() <= 0 {
		t.Errorf("UpperBound() = %v, want > 0", eng.UpperBound())
	}
	rng := xrand.New(7)
	total := 0
	for s := 0; s < 30; s++ {
		res, err := eng.RunSlot(rng)
		if err != nil {
			t.Fatalf("RunSlot: %v", err)
		}
		if res.PlannedPaths == 0 || res.Attempts == 0 {
			t.Errorf("slot %d: planned %d paths, %d attempts; want both > 0",
				s, res.PlannedPaths, res.Attempts)
		}
		if res.SegmentsCreated > res.Attempts {
			t.Errorf("created %d > attempts %d", res.SegmentsCreated, res.Attempts)
		}
		if res.Established > res.Assembled {
			t.Errorf("established %d > assembled %d", res.Established, res.Assembled)
		}
		sum := 0
		for _, c := range res.PerPair {
			sum += c
		}
		if sum != res.Established || len(res.Connections) != res.Established {
			t.Errorf("PerPair sum %d / %d connections != Established %d",
				sum, len(res.Connections), res.Established)
		}
		for _, c := range res.Connections {
			if err := c.Validate(); err != nil {
				t.Errorf("slot %d: invalid connection: %v", s, err)
			}
		}
		total += res.Established
	}
	if total == 0 {
		t.Error("no connections established in 30 slots")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	net, pairs := buildInstance(t, 40, 8, 11)
	run := func() []sched.SlotResult {
		eng, err := newEngine(net, pairs, DefaultOptions())
		if err != nil {
			t.Fatalf("newEngine: %v", err)
		}
		rng := xrand.New(42)
		var out []sched.SlotResult
		for s := 0; s < 10; s++ {
			res, err := eng.RunSlot(rng)
			if err != nil {
				t.Fatalf("RunSlot: %v", err)
			}
			out = append(out, *res.Clone())
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different runs")
	}
}

// TestPlanRespectsResources recounts the fixed plan — primary and recovery
// reservations together — against the network's channel and memory
// capacities: the contention accounting must never overshoot c_uv on any
// link or m_u at any node.
func TestPlanRespectsResources(t *testing.T) {
	net, pairs := buildInstance(t, 50, 10, 3)
	eng, err := newEngine(net, pairs, DefaultOptions())
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	channels := make([]int, net.NumLinks())
	memory := make([]int, net.NumNodes())
	for _, en := range eng.fixed.Plan {
		c, n := en.Cand, en.N
		for _, id := range c.EdgeIDs {
			channels[id] += n
		}
		memory[c.U()] += n
		memory[c.V()] += n
	}
	for _, en := range eng.recovery {
		c, n := en.Cand, en.N
		for _, id := range c.EdgeIDs {
			channels[id] += n
		}
		memory[c.U()] += n
		memory[c.V()] += n
	}
	for id, used := range channels {
		if used > net.Channels[id] {
			t.Errorf("link %d: %d attempts reserved, capacity %d", id, used, net.Channels[id])
		}
	}
	for u, used := range memory {
		if used > net.Memory[u] {
			t.Errorf("node %d: %d memory units reserved, capacity %d", u, used, net.Memory[u])
		}
	}
}

// diamond builds a 4-node fixture where the pair (0, 3) has two
// edge-disjoint 2-hop realizations (via node 1 and via node 2), so a
// recovery reservation is always available disjointly from the primary.
// Link lengths put each realization at roughly 30% success so primary
// attempts fail whole slots often enough for recovery to fire.
func diamond() (*topo.Network, []topo.SDPair) {
	const linkLen = 3000.0 // αl = 0.6 per link → p(2 hops) = e^{−1.2} ≈ 0.30
	net := &topo.Network{
		G:        graph.New(4),
		Pos:      make([][2]float64, 4),
		Memory:   []int{10, 10, 10, 10},
		SwapProb: []float64{0.9, 0.9, 0.9, 0.9},
	}
	for _, l := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		net.G.AddEdge(l[0], l[1], linkLen)
		net.LinkLen = append(net.LinkLen, linkLen)
		net.Channels = append(net.Channels, 8)
	}
	net.SetProber(topo.ExpProber{Alpha: 2e-4, Delta: 0})
	return net, []topo.SDPair{{S: 0, D: 3}}
}

// TestRecoveryFires drives enough slots that some hop's primary attempts
// all fail while its reserved recovery realization succeeds; the engine
// must report the activations through IncidentRecovery.
func TestRecoveryFires(t *testing.T) {
	net, pairs := diamond()
	tr := sched.NewCountingTracer()
	opts := DefaultOptions()
	opts.Slot.Tracer = tr
	eng, err := newEngine(net, pairs, opts)
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	if eng.recovery.TotalAttempts() == 0 {
		t.Fatal("no recovery attempts reserved on the diamond fixture")
	}
	rng := xrand.New(9)
	for s := 0; s < 40; s++ {
		if _, err := eng.RunSlot(rng); err != nil {
			t.Fatalf("RunSlot: %v", err)
		}
	}
	if got := tr.Counts().IncidentCount(sched.IncidentRecovery); got == 0 {
		t.Error("recovery attempts never fired in 40 slots")
	}
}

// TestRecoveryDisabled checks RecoveryAttempts = 0 reserves nothing and
// still runs.
func TestRecoveryDisabled(t *testing.T) {
	net, pairs := buildInstance(t, 40, 8, 6)
	opts := DefaultOptions()
	opts.RecoveryAttempts = 0
	eng, err := newEngine(net, pairs, opts)
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	if eng.recovery.TotalAttempts() != 0 {
		t.Errorf("%d recovery attempts reserved with recovery disabled", eng.recovery.TotalAttempts())
	}
	if _, err := eng.RunSlot(xrand.New(1)); err != nil {
		t.Fatalf("RunSlot: %v", err)
	}
}

// TestCarryOverConservation attaches a bank and checks the memory
// accounting invariant after every slot, plus that carried segments
// reduce the slot's primary attempt demand.
func TestCarryOverConservation(t *testing.T) {
	net, pairs := buildInstance(t, 40, 8, 8)
	eng, err := newEngine(net, pairs, DefaultOptions())
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	bank := state.NewBank(net, state.Policy{CarrySlots: 2})
	eng.AttachBank(bank)
	if eng.Bank() != bank {
		t.Fatal("Bank() did not return the attached bank")
	}
	rng := xrand.New(3)
	baseline := eng.fixed.Plan.TotalAttempts() + eng.recovery.TotalAttempts()
	trimmed := false
	for s := 0; s < 20; s++ {
		res, err := eng.RunSlot(rng)
		if err != nil {
			t.Fatalf("RunSlot: %v", err)
		}
		if err := bank.CheckConservation(); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		if res.Attempts < baseline {
			trimmed = true
		}
	}
	if bank.State().Stats.Deposited == 0 {
		t.Error("bank never accepted a deposit in 20 slots")
	}
	if !trimmed {
		t.Error("carried segments never trimmed the attempt plan")
	}
}

// planLinks collects every fibre link id charged by the primary or
// recovery plan.
func planLinks(e *Engine) map[int]bool {
	used := make(map[int]bool)
	for _, en := range e.fixed.Plan {
		c := en.Cand
		for _, id := range c.EdgeIDs {
			used[id] = true
		}
	}
	for _, en := range e.recovery {
		c := en.Cand
		for _, id := range c.EdgeIDs {
			used[id] = true
		}
	}
	return used
}

// TestPlanCapacityOverrides checks that PlanChannels/PlanMemory replace
// the network tables as the selection loop's starting residuals: zeroing
// an announced link's planning capacity must push every reservation off
// that link, and shrinking an endpoint memory must cap the per-pair
// connection count, while the true topology tables stay untouched.
func TestPlanCapacityOverrides(t *testing.T) {
	net, pairs := buildInstance(t, 50, 10, 3)
	base, err := newEngine(net, pairs, DefaultOptions())
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	var dead int
	for id := range planLinks(base) {
		dead = id
		break
	}
	opts := DefaultOptions()
	opts.Slot.Algorithm = sched.ContendAware
	opts.PlanChannels = append([]int(nil), net.Channels...)
	opts.PlanChannels[dead] = 0
	opts.PlanMemory = append([]int(nil), net.Memory...)
	opts.PlanMemory[pairs[0].S] = 1
	aware, err := newEngine(net, pairs, opts)
	if err != nil {
		t.Fatalf("newEngine(aware): %v", err)
	}
	if got := aware.Algorithm(); got != sched.ContendAware {
		t.Errorf("Algorithm() = %v, want ContendAware", got)
	}
	if planLinks(aware)[dead] {
		t.Errorf("plan reserves attempts on link %d despite zero planning capacity", dead)
	}
	if got := aware.ConnCap[0]; got != 1 {
		t.Errorf("ConnCap[0] = %d with planning memory 1, want 1", got)
	}
	if !reflect.DeepEqual(net.Channels[dead], base.Net.Channels[dead]) {
		t.Error("override mutated the network's channel table")
	}
}

// planSig renders an attempt plan in a pointer-free canonical form so
// plans built from different segment.Build calls (distinct Candidate
// pointers) can be compared.
func planSig(plan qnet.AttemptPlan) string {
	var sb strings.Builder
	for _, en := range plan {
		fmt.Fprintf(&sb, "%v=%d;", en.Cand.Path, en.N)
	}
	return sb.String()
}

// TestOfflinePlan locks the Q-PASS-style offline mode: it plans against
// the full fault-free topology (the capacity overrides are ignored), the
// fixed plan still respects the true resources, and construction is
// deterministic.
func TestOfflinePlan(t *testing.T) {
	net, pairs := buildInstance(t, 50, 10, 3)
	build := func() *Engine {
		opts := DefaultOptions()
		opts.Offline = true
		opts.Slot.Algorithm = sched.QPass
		eng, err := newEngine(net, pairs, opts)
		if err != nil {
			t.Fatalf("newEngine: %v", err)
		}
		return eng
	}
	eng := build()
	if got := eng.Algorithm(); got != sched.QPass {
		t.Errorf("Algorithm() = %v, want QPass", got)
	}
	if len(eng.paths) == 0 {
		t.Fatal("offline planner accepted no paths")
	}
	channels := make([]int, net.NumLinks())
	memory := make([]int, net.NumNodes())
	charge := func(plan qnet.AttemptPlan) {
		for _, en := range plan {
			c, n := en.Cand, en.N
			for _, id := range c.EdgeIDs {
				channels[id] += n
			}
			memory[c.U()] += n
			memory[c.V()] += n
		}
	}
	charge(eng.fixed.Plan)
	charge(eng.recovery)
	for id, used := range channels {
		if used > net.Channels[id] {
			t.Errorf("link %d: %d attempts reserved, capacity %d", id, used, net.Channels[id])
		}
	}
	for u, used := range memory {
		if used > net.Memory[u] {
			t.Errorf("node %d: %d memory units reserved, capacity %d", u, used, net.Memory[u])
		}
	}
	// The offline contrast must ignore the forecast: a capacity override
	// that would reroute the online planner leaves the offline plan
	// byte-identical.
	opts := DefaultOptions()
	opts.Offline = true
	opts.Slot.Algorithm = sched.QPass
	opts.PlanChannels = make([]int, net.NumLinks()) // everything "announced dead"
	blind, err := newEngine(net, pairs, opts)
	if err != nil {
		t.Fatalf("newEngine(blind): %v", err)
	}
	if planSig(blind.fixed.Plan) != planSig(eng.fixed.Plan) || planSig(blind.recovery) != planSig(eng.recovery) {
		t.Error("offline plan consulted the capacity overrides")
	}
	if _, err := eng.RunSlot(xrand.New(5)); err != nil {
		t.Fatalf("RunSlot: %v", err)
	}
	again := build()
	if planSig(again.fixed.Plan) != planSig(eng.fixed.Plan) {
		t.Error("offline planning is not deterministic")
	}
}

// TestForecastAvoidedIncident checks that a positive ForecastAvoided
// count is reported through the tracer every slot.
func TestForecastAvoidedIncident(t *testing.T) {
	net, pairs := topo.Motivation()
	tr := sched.NewCountingTracer()
	opts := DefaultOptions()
	opts.Slot.Tracer = tr
	opts.Slot.ForecastAvoided = 3
	eng, err := newEngine(net, pairs, opts)
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	rng := xrand.New(2)
	for s := 0; s < 4; s++ {
		if _, err := eng.RunSlot(rng); err != nil {
			t.Fatalf("RunSlot: %v", err)
		}
	}
	if got := tr.Counts().IncidentCount(sched.IncidentForecastAvoid); got != 12 {
		t.Errorf("IncidentForecastAvoid total = %d over 4 slots, want 12", got)
	}
}

// TestPlanWorkersIdentical: enumerating the segment set and the candidate
// paths on four workers fixes the serial plan, online and offline (run
// under -race by make verify).
func TestPlanWorkersIdentical(t *testing.T) {
	net, pairs := buildInstance(t, 80, 10, 31)
	for _, offline := range []bool{false, true} {
		build := func(workers int) *Engine {
			opts := DefaultOptions()
			opts.Offline = offline
			opts.Workers = workers
			eng, err := newEngine(net, pairs, opts)
			if err != nil {
				t.Fatalf("newEngine: %v", err)
			}
			return eng
		}
		serial, parallel := build(1), build(4)
		if !reflect.DeepEqual(serial.candidatePaths(), parallel.candidatePaths()) {
			t.Fatalf("offline=%v: candidate paths differ between 1 and 4 workers", offline)
		}
		if !reflect.DeepEqual(serial.paths, parallel.paths) ||
			!reflect.DeepEqual(serial.fixed, parallel.fixed) ||
			!reflect.DeepEqual(serial.recovery, parallel.recovery) ||
			serial.expected != parallel.expected {
			t.Fatalf("offline=%v: plan differs between 1 and 4 workers", offline)
		}
	}
}
