package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"see/internal/flow"
	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

func motivationEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	net, pairs := topo.Motivation()
	e, err := newEngine(net, pairs, seeEnumeration(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// seeEnumeration is SEE's row of the enumeration table in
// internal/engines, which imports this package.
func seeEnumeration() segment.Options {
	return segment.Options{KPaths: 5, MaxSegmentHops: 10, MinProb: 0.05, MaxCandidatesPerPair: 3}
}

// newEngine builds the engine the way engines.New does: the candidate set
// from seg, N_i from the planning memory.
func newEngine(net *topo.Network, pairs []topo.SDPair, seg segment.Options, opts Options) (*Engine, error) {
	set, err := segment.Build(net, pairs, seg)
	if err != nil {
		return nil, err
	}
	return New(nil, set, set.ConnCap(opts.Flow.Memory), opts)
}

func TestEngineSolvesLPOnce(t *testing.T) {
	e := motivationEngine(t, DefaultOptions())
	if e.LP.Objective <= 0 {
		t.Fatalf("LP objective = %v, want > 0", e.LP.Objective)
	}
	if e.UpperBound() != e.LP.Objective {
		t.Fatal("UpperBound must return the LP objective")
	}
	if len(e.ConnCap) != 2 || e.ConnCap[0] != 1 || e.ConnCap[1] != 1 {
		t.Fatalf("ConnCap = %v, want [1 1] (min endpoint memory)", e.ConnCap)
	}
}

func TestRunSlotDeterministicPerSeed(t *testing.T) {
	e := motivationEngine(t, DefaultOptions())
	a, err := e.RunSlot(xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	a = a.Clone() // the next slot reuses the result
	b, err := e.RunSlot(xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Established != b.Established || a.SegmentsCreated != b.SegmentsCreated ||
		a.PlannedPaths != b.PlannedPaths || a.Attempts != b.Attempts {
		t.Fatalf("slot not deterministic: %+v vs %+v", a, b)
	}
}

func TestRunSlotInvariants(t *testing.T) {
	e := motivationEngine(t, DefaultOptions())
	for seed := int64(0); seed < 200; seed++ {
		res, err := e.RunSlot(xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if res.Established > res.Assembled {
			t.Fatal("established > assembled")
		}
		if res.ProvisionedPaths > res.PlannedPaths {
			t.Fatal("provisioned > planned")
		}
		if res.SegmentsCreated > res.Attempts {
			t.Fatal("created > attempts")
		}
		sum := 0
		for i, c := range res.PerPair {
			if c > e.ConnCap[i] {
				t.Fatalf("pair %d exceeded ConnCap: %d > %d", i, c, e.ConnCap[i])
			}
			sum += c
		}
		if sum != res.Established {
			t.Fatal("PerPair does not sum to Established")
		}
		for _, conn := range res.Connections {
			if err := conn.Validate(); err != nil {
				t.Fatal(err)
			}
			sd := e.Pairs[conn.Pair]
			if conn.Nodes[0] != sd.S || conn.Nodes[len(conn.Nodes)-1] != sd.D {
				t.Fatalf("connection endpoints %v for pair %+v", conn.Nodes, sd)
			}
		}
	}
}

// Each realized segment must be consumed by at most one connection.
func TestRunSlotNoSegmentDoubleUse(t *testing.T) {
	e := motivationEngine(t, DefaultOptions())
	for seed := int64(0); seed < 100; seed++ {
		res, err := e.RunSlot(xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[*qnet.Segment]bool)
		for _, conn := range res.Connections {
			for _, s := range conn.Segments {
				if seen[s] {
					t.Fatal("segment used by two connections")
				}
				seen[s] = true
			}
		}
	}
}

// The motivation fixture: mean throughput must clearly beat the
// conventional optimum (0.729) and stay below the SEE plan's ideal 1.489.
func TestMotivationThroughputBand(t *testing.T) {
	e := motivationEngine(t, DefaultOptions())
	rng := xrand.New(42)
	const slots = 4000
	total := 0
	for i := 0; i < slots; i++ {
		res, err := e.RunSlot(rng)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Established
	}
	mean := float64(total) / slots
	if mean < 0.85 {
		t.Fatalf("mean throughput %.3f; want > 0.85 (conventional optimum is 0.729)", mean)
	}
	if mean > 1.489+1e-9 {
		t.Fatalf("mean throughput %.3f exceeds the ideal plan value 1.489", mean)
	}
}

func TestStrictProvisioningDropsUncoverablePaths(t *testing.T) {
	// With 1 channel per link and p < 1, strict ESC can never reach
	// expected coverage >= 1, so nothing is provisioned.
	opts := DefaultOptions()
	opts.StrictProvisioning = true
	e := motivationEngine(t, opts)
	res, err := e.RunSlot(xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.ProvisionedPaths != 0 || res.Attempts != 0 {
		t.Fatalf("strict mode provisioned %d paths with %d attempts on a 1-channel fixture",
			res.ProvisionedPaths, res.Attempts)
	}
}

func TestOrderPaths(t *testing.T) {
	mk := func(commodity, segs, phys int) PlannedPath {
		hops := make([]flow.SegHop, segs)
		return PlannedPath{Commodity: commodity, Hops: hops, PhysHops: phys}
	}
	in := []PlannedPath{
		mk(1, 2, 4), mk(0, 1, 3), mk(1, 1, 2), mk(0, 1, 2), mk(0, 1, 2),
	}
	got, err := (&slotScratch{}).orderPaths(in)
	if err != nil {
		t.Fatal(err)
	}
	// Class (1 seg, 2 hops): round robin over commodities 0,1 ->
	// c0, c1, c0. Then (1,3): c0. Then (2,4): c1.
	wantSegs := []int{1, 1, 1, 1, 2}
	wantComm := []int{0, 1, 0, 0, 1}
	for i := range got {
		if len(got[i].Hops) != wantSegs[i] || got[i].Commodity != wantComm[i] {
			t.Fatalf("position %d: got commodity %d with %d segs; want %d/%d",
				i, got[i].Commodity, len(got[i].Hops), wantComm[i], wantSegs[i])
		}
	}
}

// A perfect network (p = q = 1) with ample resources must deterministically
// establish the ConnCap for the single pair.
func TestRunSlotPerfectNetwork(t *testing.T) {
	net := perfectLine(5, 4, 8)
	pairs := []topo.SDPair{{S: 0, D: 4}}
	e, err := newEngine(net, pairs, seeEnumeration(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunSlot(xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Established != 4 {
		t.Fatalf("established = %d, want 4 (channel bound) — result %+v", res.Established, res)
	}
}

// perfectLine builds a line network with p = q = 1.
func perfectLine(n, channels, memory int) *topo.Network {
	net := &topo.Network{
		G:        graph.New(n),
		Pos:      make([][2]float64, n),
		Memory:   make([]int, n),
		SwapProb: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		net.Pos[i] = [2]float64{float64(i) * 100, 0}
		net.Memory[i] = memory
		net.SwapProb[i] = 1
	}
	for i := 0; i+1 < n; i++ {
		net.G.AddEdge(i, i+1, 100)
		net.LinkLen = append(net.LinkLen, 100)
		net.Channels = append(net.Channels, channels)
	}
	net.SetProber(topo.ExpProber{Alpha: 0})
	return net
}

// Failure injection: a node with zero memory on the only route blocks
// provisioning entirely.
func TestRunSlotZeroMemoryEndpoint(t *testing.T) {
	net := perfectLine(3, 2, 4)
	net.Memory[0] = 0 // source cannot store its Bell photon
	pairs := []topo.SDPair{{S: 0, D: 2}}
	e, err := newEngine(net, pairs, seeEnumeration(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunSlot(xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Established != 0 || res.Attempts != 0 {
		t.Fatalf("zero-memory source still established %d with %d attempts", res.Established, res.Attempts)
	}
}

func TestRunSlotRandomNetworkInvariants(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.Nodes = 40
	net, err := topo.Generate(cfg, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 5, xrand.New(12))
	seg := seeEnumeration()
	seg.KPaths = 3
	e, err := newEngine(net, pairs, seg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(13)
	var totalEstablished int
	for slot := 0; slot < 30; slot++ {
		res, err := e.RunSlot(rng)
		if err != nil {
			t.Fatal(err)
		}
		totalEstablished += res.Established
		// Established count is bounded by the LP value only in
		// expectation, but it can never exceed the total planned paths
		// plus opportunistic extras bounded by ConnCap.
		capSum := 0
		for _, c := range e.ConnCap {
			capSum += c
		}
		if res.Established > capSum {
			t.Fatalf("established %d > ConnCap sum %d", res.Established, capSum)
		}
	}
	if totalEstablished == 0 {
		t.Fatal("40-node network established nothing in 30 slots")
	}
}

// ESC must never overdraw resources even under adversarial candidate
// overlap; run many seeds and rely on ledger.Validate inside the engine.
func TestESCLedgerNeverOverdraws(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.Nodes = 30
	cfg.Channels = 2
	cfg.Memory = 3
	net, err := topo.Generate(cfg, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 6, xrand.New(22))
	e, err := newEngine(net, pairs, seeEnumeration(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 60; seed++ {
		planned := e.identifyPathsLP(nil, e.LP, xrand.New(seed))
		plan, provisioned, err := e.createSegmentsPlanScratch(planned, e.scratch())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Recompute usage from the plan and check against raw capacity.
		chanUse := make(map[int]int)
		memUse := make(map[int]int)
		for _, en := range plan {
			cand, n := en.Cand, en.N
			for _, eid := range cand.EdgeIDs {
				chanUse[eid] += n
			}
			memUse[cand.Path[0]] += n
			memUse[cand.Path[len(cand.Path)-1]] += n
		}
		for eid, u := range chanUse {
			if u > net.Channels[eid] {
				t.Fatalf("seed %d: link %d overdrawn %d > %d", seed, eid, u, net.Channels[eid])
			}
		}
		for node, u := range memUse {
			if u > net.Memory[node] {
				t.Fatalf("seed %d: node %d memory overdrawn %d > %d", seed, node, u, net.Memory[node])
			}
		}
		if len(provisioned) > len(planned) {
			t.Fatal("provisioned more than planned")
		}
	}
}

func TestFullPathOnlyEngineActsAsE2E(t *testing.T) {
	seg := seeEnumeration()
	seg.FullPathOnly = true
	net, pairs := topo.Motivation()
	e, err := newEngine(net, pairs, seg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 50; seed++ {
		res, err := e.RunSlot(xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, conn := range res.Connections {
			if len(conn.Segments) != 1 {
				t.Fatalf("E2E-style engine assembled a multi-segment connection: %v", conn.Nodes)
			}
		}
	}
}

// stitchOnly drives the engine's ECE through sched.Runner over hand-built
// segments: no plan phase, an empty creation plan, and a physical phase
// that realizes exactly segs for the given provisioned paths.
type stitchOnly struct {
	e           *Engine
	provisioned []PlannedPath
	segs        []*qnet.Segment
}

func (p *stitchOnly) PlanPhase(*sched.Slot) bool { return false }

func (p *stitchOnly) ReservePhase(*sched.Slot) (plan, held qnet.AttemptPlan, err error) {
	return nil, nil, nil
}

func (p *stitchOnly) PhysicalHook(s *sched.Slot) {
	s.Created = p.segs
	p.e.scratch().provisioned = p.provisioned
}

func (p *stitchOnly) StitchPhase(s *sched.Slot) (assembled, floorRejected int) {
	return p.e.StitchPhase(s)
}

// runECE runs one stitch-only slot and returns the established connections
// and the assembly attempts (established + swap-failed).
func runECE(t *testing.T, e *Engine, provisioned []PlannedPath, segs []*qnet.Segment, rng *rand.Rand) ([]*qnet.Connection, int) {
	t.Helper()
	res, err := e.Run(&stitchOnly{e: e, provisioned: provisioned, segs: segs}, rng, sched.SlotResult{}, len(e.Pairs))
	if err != nil {
		t.Fatal(err)
	}
	return res.Connections, res.Assembled
}

func TestEstablishConnectionsUsesLeftovers(t *testing.T) {
	// No provisioned paths, but realized segments exist: phase B must
	// still build connections.
	e := motivationEngine(t, DefaultOptions())
	s2d2 := e.Set.For(topo.MotivS2, topo.MotivD2)[0]
	segs := []*qnet.Segment{{A: s2d2.U(), B: s2d2.V(), Cand: s2d2}}
	conns, attempts := runECE(t, e, nil, segs, xrand.New(1))
	if len(conns) != 1 || attempts != 1 {
		t.Fatalf("assembled %d connections from leftovers, want 1", len(conns))
	}
	if conns[0].Pair != 1 {
		t.Fatalf("connection assigned to pair %d, want 1 (s2,d2)", conns[0].Pair)
	}
}

func TestEstablishConnectionsPrefersHighSwapJunctions(t *testing.T) {
	// Diamond: s can reach d via junction a (higher q) or junction b
	// (lower q). With one segment each, the ECE shortest path must pick a
	// first. Swap probabilities are kept ≈1 so the in-slot swap sampling
	// cannot make the outcome flaky while −ln q still orders the routes.
	net := &topo.Network{
		G:        graph.New(4),
		Pos:      make([][2]float64, 4),
		Memory:   []int{4, 4, 4, 4},
		SwapProb: []float64{1, 1 - 1e-9, 1 - 1e-6, 1}, // s, a, b, d
	}
	for _, l := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		net.G.AddEdge(l[0], l[1], 100)
		net.LinkLen = append(net.LinkLen, 100)
		net.Channels = append(net.Channels, 2)
	}
	net.SetProber(topo.ExpProber{Alpha: 0})
	pairs := []topo.SDPair{{S: 0, D: 3}}
	e, err := newEngine(net, pairs, seeEnumeration(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(a, b int) *qnet.Segment {
		c := e.Set.For(a, b)[0]
		if c == nil {
			t.Fatalf("no candidate %d-%d", a, b)
		}
		return &qnet.Segment{A: c.U(), B: c.V(), Cand: c}
	}
	segs := []*qnet.Segment{mk(0, 1), mk(1, 3), mk(0, 2), mk(2, 3)}
	conns, attempts := runECE(t, e, nil, segs, xrand.New(5))
	// ConnCap is 4, so ECE keeps going: first the high-q route, then the
	// low-q leftovers.
	if len(conns) != 2 || attempts != 2 {
		t.Fatalf("assembled %d connections in %d attempts, want 2/2", len(conns), attempts)
	}
	if !conns[0].Nodes.Equal(graph.Path{0, 1, 3}) {
		t.Fatalf("ECE chose %v first, want the high-q junction path [0 1 3]", conns[0].Nodes)
	}
	if q := net.SwapProb[conns[0].Nodes[1]]; math.Abs(q-(1-1e-9)) > 1e-12 {
		t.Fatalf("junction swap prob = %v, want ~1", q)
	}
	if !conns[1].Nodes.Equal(graph.Path{0, 2, 3}) {
		t.Fatalf("second connection %v, want [0 2 3]", conns[1].Nodes)
	}
}

func TestSegmentSetRespectsOptionsThroughEngine(t *testing.T) {
	seg := seeEnumeration()
	seg.MaxSegmentHops = 1
	net, pairs := topo.Motivation()
	e, err := newEngine(net, pairs, seg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, list := range e.Set.ByPair {
		for _, c := range list {
			if c.Hops() != 1 {
				t.Fatal("the engine planned over candidates outside its set")
			}
		}
	}
}

// Theorem 2's premise: EPI's rounding preserves the LP expectation —
// E[#planned connections for pair i] = T_i.
func TestEPIPlannedExpectationMatchesLP(t *testing.T) {
	e := motivationEngine(t, DefaultOptions())
	const rounds = 30000
	counts := make([]float64, len(e.Pairs))
	rng := xrand.New(99)
	for r := 0; r < rounds; r++ {
		for _, p := range e.identifyPathsLP(nil, e.LP, rng) {
			counts[p.Commodity]++
		}
	}
	for i := range e.Pairs {
		got := counts[i] / rounds
		want := e.LP.PerCommodity[i]
		if math.Abs(got-want) > 0.02+0.05*want {
			t.Fatalf("pair %d: mean planned %.4f, LP flow %.4f", i, got, want)
		}
	}
}

// EPI paths must be sampled proportionally to LP path flows: every LP path
// with meaningful flow should eventually appear.
func TestEPISamplesAllPositiveFlowPaths(t *testing.T) {
	e := motivationEngine(t, DefaultOptions())
	seen := make(map[string]bool)
	rng := xrand.New(5)
	for r := 0; r < 5000; r++ {
		for _, p := range e.identifyPathsLP(nil, e.LP, rng) {
			seen[fmt.Sprintf("%d:%v", p.Commodity, p.Nodes)] = true
		}
	}
	for _, pf := range e.LP.Paths {
		if pf.Flow < 0.05 {
			continue
		}
		key := fmt.Sprintf("%d:%v", pf.Commodity, pf.Nodes)
		if !seen[key] {
			t.Fatalf("LP path %s with flow %.3f never sampled", key, pf.Flow)
		}
	}
}

// ESC invariant: in default (best-effort) mode, every provisioned path's
// hop has at least as many attempts as its demand; in strict mode the
// expected coverage must also reach the demand.
func TestESCCoverageInvariant(t *testing.T) {
	for _, strict := range []bool{false, true} {
		cfg := topo.DefaultConfig()
		cfg.Nodes = 40
		net, err := topo.Generate(cfg, xrand.New(31))
		if err != nil {
			t.Fatal(err)
		}
		pairs := topo.ChooseSDPairs(net, 6, xrand.New(32))
		opts := DefaultOptions()
		opts.StrictProvisioning = strict
		e, err := newEngine(net, pairs, seeEnumeration(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 20; seed++ {
			planned := e.identifyPathsLP(nil, e.LP, xrand.New(seed))
			plan, provisioned, err := e.createSegmentsPlanScratch(planned, e.scratch())
			if err != nil {
				t.Fatal(err)
			}
			demand := map[segment.PairKey]int{}
			for _, p := range provisioned {
				for _, hop := range p.Hops {
					demand[hop.Pair]++
				}
			}
			attempts := map[segment.PairKey]int{}
			expected := map[segment.PairKey]float64{}
			for _, en := range plan {
				cand, n := en.Cand, en.N
				pk := segment.MakePairKey(cand.Path[0], cand.Path[len(cand.Path)-1])
				attempts[pk] += n
				expected[pk] += float64(n) * cand.Prob
			}
			for pk, d := range demand {
				if attempts[pk] < d {
					t.Fatalf("strict=%v seed %d: pair %+v has %d attempts for demand %d",
						strict, seed, pk, attempts[pk], d)
				}
				if strict && expected[pk] < float64(d)-1e-9 {
					t.Fatalf("strict seed %d: pair %+v expected coverage %.3f < demand %d",
						seed, pk, expected[pk], d)
				}
			}
		}
	}
}

// At q = 1 with ample redundancy, SEE's established count should track the
// LP bound closely on average (the LP is exact when nothing fails).
func TestSEETracksLPBoundAtQ1(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.Nodes = 50
	cfg.SwapProb = 1
	cfg.Alpha = 1e-9 // p ~= 1 (plus noise)
	cfg.Delta = 0
	net, err := topo.Generate(cfg, xrand.New(41))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 5, xrand.New(42))
	e, err := newEngine(net, pairs, seeEnumeration(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(43)
	total := 0
	const slots = 50
	for s := 0; s < slots; s++ {
		res, err := e.RunSlot(rng)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Established
	}
	mean := float64(total) / slots
	if mean < 0.85*e.LP.Objective {
		t.Fatalf("perfect network mean %.2f far below LP bound %.2f", mean, e.LP.Objective)
	}
}

// Diagnostic: for a single SD pair at q = 1, the connections ECE assembles
// are bounded by the max flow of the realized-segment availability graph,
// and greedy shortest-path selection should reach a solid fraction of it.
func TestECEAgainstMaxFlowBound(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.Nodes = 30
	cfg.SwapProb = 1
	net, err := topo.Generate(cfg, xrand.New(51))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 1, xrand.New(52))
	e, err := newEngine(net, pairs, seeEnumeration(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	achievedTotal, boundTotal := 0, 0
	for seed := int64(0); seed < 25; seed++ {
		rng := xrand.New(seed)
		planned := e.identifyPathsLP(nil, e.LP, rng)
		plan, provisioned, err := e.createSegmentsPlanScratch(planned, e.scratch())
		if err != nil {
			t.Fatal(err)
		}
		var arena qnet.Arena
		created := arena.Attempt(nil, plan, rng, nil, nil)
		// Max-flow bound over realized segment multiplicities.
		counts := map[segment.PairKey]int{}
		for _, s := range created {
			counts[s.Pair()]++
		}
		mf := graph.NewMaxFlow(net.NumNodes())
		for pk, c := range counts {
			mf.AddUndirected(pk.U, pk.V, c)
		}
		bound := mf.Solve(pairs[0].S, pairs[0].D)
		if bound > e.ConnCap[0] {
			bound = e.ConnCap[0]
		}
		conns, attempts := runECE(t, e, provisioned, created, rng)
		if attempts > 0 && len(conns) != attempts {
			t.Fatalf("seed %d: q=1 but %d of %d assemblies failed", seed, attempts-len(conns), attempts)
		}
		if len(conns) > bound {
			t.Fatalf("seed %d: ECE assembled %d > max-flow bound %d", seed, len(conns), bound)
		}
		achievedTotal += len(conns)
		boundTotal += bound
	}
	if boundTotal == 0 {
		t.Skip("no realized segments across seeds")
	}
	if frac := float64(achievedTotal) / float64(boundTotal); frac < 0.6 {
		t.Fatalf("ECE achieved only %.0f%% of the max-flow bound on average", frac*100)
	}
}
