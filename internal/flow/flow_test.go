package flow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"

	"see/internal/graph"
	"see/internal/lp"
	"see/internal/lp/lptest"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// lineNetwork builds a chain 0-1-…-n with uniform link length, channels,
// memory and swap probability, and a zero-noise exponential prober.
func lineNetwork(n int, linkKM float64, channels, memory int, q, alpha float64) *topo.Network {
	net := &topo.Network{
		G:        graph.New(n),
		Pos:      make([][2]float64, n),
		Memory:   make([]int, n),
		SwapProb: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		net.Pos[i] = [2]float64{float64(i) * linkKM, 0}
		net.Memory[i] = memory
		net.SwapProb[i] = q
	}
	for i := 0; i+1 < n; i++ {
		net.G.AddEdge(i, i+1, linkKM)
		net.LinkLen = append(net.LinkLen, linkKM)
		net.Channels = append(net.Channels, channels)
	}
	net.SetProber(topo.ExpProber{Alpha: alpha})
	return net
}

func buildSet(t *testing.T, net *topo.Network, pairs []topo.SDPair, opts segment.Options) *segment.Set {
	t.Helper()
	set, err := segment.Build(net, pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestSolvePerfectChain(t *testing.T) {
	// p = 1 and q = 1 everywhere: the only binding resource is the channel
	// count, so the LP optimum is exactly the channel capacity.
	net := lineNetwork(4, 100, 3, 10, 1, 0)
	pairs := []topo.SDPair{{S: 0, D: 3}}
	set := buildSet(t, net, pairs, segment.DefaultOptions())
	sol, err := SolveCtx(nil, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-3) > 1e-6 {
		t.Fatalf("objective = %v, want 3 (channel-bound)", sol.Objective)
	}
	if math.Abs(sol.PerCommodity[0]-3) > 1e-6 {
		t.Fatalf("T_0 = %v, want 3", sol.PerCommodity[0])
	}
}

func TestSolveMemoryBound(t *testing.T) {
	// Endpoint memory 2 beats channel capacity 5.
	net := lineNetwork(3, 100, 5, 2, 1, 0)
	pairs := []topo.SDPair{{S: 0, D: 2}}
	set := buildSet(t, net, pairs, segment.DefaultOptions())
	sol, err := SolveCtx(nil, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-2) > 1e-6 {
		t.Fatalf("objective = %v, want 2 (memory-bound)", sol.Objective)
	}
}

func TestSolveConnCap(t *testing.T) {
	net := lineNetwork(3, 100, 5, 10, 1, 0)
	pairs := []topo.SDPair{{S: 0, D: 2}}
	set := buildSet(t, net, pairs, segment.DefaultOptions())
	sol, err := SolveCtx(nil, set, Options{ConnCap: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-1) > 1e-6 {
		t.Fatalf("objective = %v, want 1 (ConnCap)", sol.Objective)
	}
	if _, err := SolveCtx(nil, set, Options{ConnCap: []int{1, 2}}); err == nil {
		t.Fatal("mismatched ConnCap length accepted")
	}
}

func TestSolveUnroutablePair(t *testing.T) {
	// Two disconnected line components.
	net := &topo.Network{
		G:        graph.New(4),
		Pos:      make([][2]float64, 4),
		Memory:   []int{5, 5, 5, 5},
		SwapProb: []float64{1, 1, 1, 1},
	}
	net.G.AddEdge(0, 1, 100)
	net.LinkLen = []float64{100}
	net.Channels = []int{3}
	net.G.AddEdge(2, 3, 100)
	net.LinkLen = append(net.LinkLen, 100)
	net.Channels = append(net.Channels, 3)
	net.SetProber(topo.ExpProber{Alpha: 0})
	set := buildSet(t, net, []topo.SDPair{{S: 0, D: 3}, {S: 0, D: 1}}, segment.DefaultOptions())
	sol, err := SolveCtx(nil, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.PerCommodity[0] != 0 {
		t.Fatalf("unroutable pair got flow %v", sol.PerCommodity[0])
	}
	if sol.PerCommodity[1] <= 0 {
		t.Fatal("routable pair got no flow")
	}
}

func TestSolveNilSet(t *testing.T) {
	if _, err := SolveCtx(nil, nil, Options{}); err == nil {
		t.Fatal("nil set accepted")
	}
}

// verifyFeasibility recomputes resource usage from the returned paths and
// asserts all capacities hold.
func verifyFeasibility(t *testing.T, set *segment.Set, sol *Solution, caps []int) {
	t.Helper()
	linkUse := make(map[int]float64)
	memUse := make(map[int]float64)
	perC := make([]float64, len(set.Pairs))
	for _, pf := range sol.Paths {
		perC[pf.Commodity] += pf.Flow
		if pf.Nodes[0] != set.Pairs[pf.Commodity].S || pf.Nodes[len(pf.Nodes)-1] != set.Pairs[pf.Commodity].D {
			t.Fatalf("path endpoints %v do not match pair %+v", pf.Nodes, set.Pairs[pf.Commodity])
		}
		for h, hop := range pf.Hops {
			if hop.Cand == nil {
				t.Fatal("hop without candidate")
			}
			pk := segment.MakePairKey(pf.Nodes[h], pf.Nodes[h+1])
			if hop.Pair != pk {
				t.Fatalf("hop %d pair %+v != node sequence %+v", h, hop.Pair, pk)
			}
			qu := set.Net.SwapProb[hop.Cand.Path[0]]
			qv := set.Net.SwapProb[hop.Cand.Path[len(hop.Cand.Path)-1]]
			f := pf.Flow / (hop.Cand.Prob * math.Sqrt(qu*qv))
			for _, e := range hop.Cand.EdgeIDs {
				linkUse[e] += f
			}
			memUse[hop.Pair.U] += f
			memUse[hop.Pair.V] += f
		}
	}
	const eps = 1e-6
	for e, use := range linkUse {
		if use > float64(set.Net.Channels[e])+eps {
			t.Fatalf("link %d overdrawn: %v > %d", e, use, set.Net.Channels[e])
		}
	}
	for u, use := range memUse {
		if use > float64(set.Net.Memory[u])+eps {
			t.Fatalf("memory %d overdrawn: %v > %d", u, use, set.Net.Memory[u])
		}
	}
	for i, v := range perC {
		if caps != nil && v > float64(caps[i])+eps {
			t.Fatalf("commodity %d exceeds cap: %v > %d", i, v, caps[i])
		}
		if math.Abs(v-sol.PerCommodity[i]) > eps {
			t.Fatalf("PerCommodity[%d] = %v, recomputed %v", i, sol.PerCommodity[i], v)
		}
	}
}

func TestSolveMotivationFeasibleAndPositive(t *testing.T) {
	net, pairs := topo.Motivation()
	set := buildSet(t, net, pairs, segment.DefaultOptions())
	sol, err := SolveCtx(nil, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Objective <= 0.5 || sol.Objective > 2+1e-9 {
		t.Fatalf("objective = %v outside (0.5, 2]", sol.Objective)
	}
	verifyFeasibility(t, set, sol, nil)
}

// denseEquivalent builds the arc-form LP of formulation (1) (aggregated
// over n) as dense ≤ rows and solves it with the exact referee in
// internal/lp/lptest, as an oracle for the column-generation stack. Each
// flow-conservation equality becomes two ≤ 0 rows, so every right-hand
// side stays non-negative. It returns the exact optimum and T_i per
// commodity.
func denseEquivalent(t *testing.T, set *segment.Set, connCap []int) (*big.Rat, []*big.Rat) {
	t.Helper()
	type arc struct{ from, to, edgeID int }
	var arcs []arc
	for id, pk := range set.EdgePairs {
		arcs = append(arcs, arc{pk.U, pk.V, id}, arc{pk.V, pk.U, id})
	}
	numPairs := len(set.Pairs)
	// Variables: f[i][a] per commodity per arc, x[pair][cand], T[i].
	next := numPairs * len(arcs)
	xIndex := make(map[*segment.Candidate]int)
	for _, pk := range set.EdgePairs {
		for _, c := range set.ByPair[pk] {
			xIndex[c] = next
			next++
		}
	}
	tBase := next
	next += numPairs
	obj := make([]float64, next)
	for i := 0; i < numPairs; i++ {
		obj[tBase+i] = 1
	}
	fVar := func(i, a int) int { return i*len(arcs) + a }
	var rows [][]float64
	var rhs []float64
	add := func(row []float64, b float64) {
		rows = append(rows, row)
		rhs = append(rhs, b)
	}
	// Flow conservation, as out − in ≤ 0 and in − out ≤ 0.
	for i, sd := range set.Pairs {
		for u := 0; u < set.Net.NumNodes(); u++ {
			row := make([]float64, next)
			used := false
			for a, ar := range arcs {
				if ar.from == u {
					row[fVar(i, a)]++
					used = true
				}
				if ar.to == u {
					row[fVar(i, a)]--
					used = true
				}
			}
			switch u {
			case sd.S:
				row[tBase+i]--
				used = true
			case sd.D:
				row[tBase+i]++
				used = true
			}
			if !used {
				continue
			}
			neg := make([]float64, next)
			for j, v := range row {
				neg[j] = -v
			}
			add(row, 0)
			add(neg, 0)
		}
	}
	// (1d): flow across a pair <= sum p x sqrt(qu qv).
	for id, pk := range set.EdgePairs {
		row := make([]float64, next)
		for i := 0; i < numPairs; i++ {
			for a, ar := range arcs {
				if ar.edgeID == id {
					row[fVar(i, a)]++
				}
			}
		}
		qs := math.Sqrt(set.Net.SwapProb[pk.U] * set.Net.SwapProb[pk.V])
		for _, c := range set.ByPair[pk] {
			row[xIndex[c]] -= c.Prob * qs
		}
		add(row, 0)
	}
	// (1e): channel capacity.
	for _, linkID := range set.UsedLinks() {
		row := make([]float64, next)
		for _, pk := range set.EdgePairs {
			for _, c := range set.ByPair[pk] {
				for _, e := range c.EdgeIDs {
					if e == linkID {
						row[xIndex[c]]++
					}
				}
			}
		}
		add(row, float64(set.Net.Channels[linkID]))
	}
	// (1f): memory.
	for _, u := range set.UsedEndpoints() {
		row := make([]float64, next)
		for _, pk := range set.EdgePairs {
			if pk.U != u && pk.V != u {
				continue
			}
			for _, c := range set.ByPair[pk] {
				row[xIndex[c]]++
			}
		}
		add(row, float64(set.Net.Memory[u]))
	}
	// T_i caps.
	for i := range set.Pairs {
		row := make([]float64, next)
		row[tBase+i] = 1
		add(row, float64(connCap[i]))
	}
	sol, err := lptest.Solve(obj, rows, rhs)
	if err != nil {
		t.Fatalf("exact oracle: %v", err)
	}
	return sol.Objective, sol.X[tBase:]
}

// Property: column generation matches the exact arc-form LP on the
// motivation fixture, small random networks and a corpus of degenerate
// instances, to 1e-9 relative.
func TestSolveMatchesDenseOracle(t *testing.T) {
	// check solves set under per-pair caps connCap (nil derives
	// min(mem_s, mem_d)) by column generation and exactly, compares the
	// optima and returns T per commodity from each.
	check := func(name string, set *segment.Set, connCap []int) ([]float64, []*big.Rat) {
		t.Helper()
		if connCap == nil {
			connCap = make([]int, len(set.Pairs))
			for i, sd := range set.Pairs {
				connCap[i] = min(set.Net.Memory[sd.S], set.Net.Memory[sd.D])
			}
		}
		sol, err := SolveCtx(nil, set, Options{ConnCap: connCap})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Status != lp.StatusOptimal {
			t.Fatalf("%s: status %v", name, sol.Status)
		}
		exact, perT := denseEquivalent(t, set, connCap)
		want, _ := exact.Float64()
		if math.Abs(sol.Objective-want) > 1e-9*(1+want) {
			t.Fatalf("%s: colgen %v != exact %v", name, sol.Objective, exact.FloatString(15))
		}
		verifyFeasibility(t, set, sol, connCap)
		return sol.PerCommodity, perT
	}
	waxman := func(seed int64) (*topo.Network, []topo.SDPair, segment.Options) {
		cfg := topo.DefaultConfig()
		cfg.Nodes = 14
		rnet, err := topo.Generate(cfg, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		rpairs := topo.ChooseSDPairs(rnet, 3, xrand.New(seed+100))
		opts := segment.DefaultOptions()
		opts.KPaths = 3
		opts.MaxSegmentHops = 3
		return rnet, rpairs, opts
	}

	net, pairs := topo.Motivation()
	check("motivation", buildSet(t, net, pairs, segment.DefaultOptions()), nil)
	for seed := int64(0); seed < 4; seed++ {
		rnet, rpairs, opts := waxman(seed)
		check(fmt.Sprintf("waxman %d", seed), buildSet(t, rnet, rpairs, opts), nil)
	}

	// The degenerate corpus.
	rnet, rpairs, opts := waxman(1)
	for e := range rnet.Channels {
		if e%3 == 0 {
			rnet.Channels[e] = 0
		}
	}
	check("zero-channel links", buildSet(t, rnet, rpairs, opts), nil)

	rnet, rpairs, opts = waxman(2)
	for u := range rnet.SwapProb {
		rnet.SwapProb[u] = 1
	}
	check("q = 1", buildSet(t, rnet, rpairs, opts), nil)

	// e^{−αl} vanishes at 1e3 km, so p is the noise term δ alone: tiny
	// probabilities and huge 1/p factors, or no candidate at all.
	rnet, rpairs, opts = waxman(3)
	rnet.SetProber(topo.ExpProber{Alpha: 0.05, Delta: 0.05, Seed: 3})
	opts.MinProb = 0
	check("p ≈ δ", buildSet(t, rnet, rpairs, opts), nil)

	// Two components, 0-1-2 and 3-4: pair (1,4) has no route, so its T
	// must be exactly 0 while the others carry flow.
	split := lineNetwork(5, 100, 3, 10, 0.9, 0)
	split.G = graph.New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}} {
		split.G.AddEdge(e[0], e[1], 100)
	}
	split.LinkLen, split.Channels = split.LinkLen[:3], split.Channels[:3]
	per, perT := check("separate component", buildSet(t, split,
		[]topo.SDPair{{S: 0, D: 2}, {S: 1, D: 4}, {S: 3, D: 4}}, segment.DefaultOptions()), nil)
	if per[1] != 0 || perT[1].Sign() != 0 || perT[0].Sign() <= 0 || perT[2].Sign() <= 0 {
		t.Fatalf("separate component: colgen T = %v, exact T = %v, want T_1 = 0 < T_0, T_2", per, perT)
	}

	per, perT = check("q = 0", buildSet(t, lineNetwork(3, 100, 3, 10, 0, 0),
		[]topo.SDPair{{S: 0, D: 2}}, segment.DefaultOptions()), nil)
	if per[0] != 0 || perT[0].Sign() != 0 {
		t.Fatalf("q = 0: colgen T = %v, exact T = %v, want 0", per[0], perT[0])
	}

	// A perfect chain with 3 channels per link, capped at T ≤ 2: the cap
	// row is the one that binds.
	per, perT = check("binding cap", buildSet(t, lineNetwork(4, 100, 3, 10, 1, 0),
		[]topo.SDPair{{S: 0, D: 3}}, segment.DefaultOptions()), []int{2})
	if per[0] != 2 || perT[0].Cmp(big.NewRat(2, 1)) != 0 {
		t.Fatalf("binding cap: colgen T = %v, exact T = %v, want 2", per[0], perT[0])
	}
}

func TestSolveZeroSwapProbability(t *testing.T) {
	// q = 0 at every node: no segment can support flow (the √(q_u q_v)
	// apportioning zeroes capacity), so the LP optimum is 0 and no columns
	// are usable.
	net := lineNetwork(3, 100, 3, 10, 0, 0)
	pairs := []topo.SDPair{{S: 0, D: 2}}
	set := buildSet(t, net, pairs, segment.DefaultOptions())
	sol, err := SolveCtx(nil, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 0 {
		t.Fatalf("objective = %v, want 0", sol.Objective)
	}
}

// With the swap-weighted objective on a perfect network (q = 1) the optimum
// is unchanged: every path has weight 1.
func TestSwapWeightedMatchesPlainAtQ1(t *testing.T) {
	net := lineNetwork(5, 100, 3, 10, 1, 0)
	pairs := []topo.SDPair{{S: 0, D: 4}}
	set := buildSet(t, net, pairs, segment.DefaultOptions())
	plain, err := SolveCtx(nil, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := SolveCtx(nil, set, Options{SwapWeightedObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Objective-weighted.Objective) > 1e-6 {
		t.Fatalf("q=1: plain %v != weighted %v", plain.Objective, weighted.Objective)
	}
}

// At low swap probability the weighted objective must choose junction-light
// paths: on a 3-node line with a 2-hop candidate, all flow should ride the
// direct segment rather than two links joined by a swap.
func TestSwapWeightedPrefersFewJunctions(t *testing.T) {
	net := lineNetwork(3, 100, 4, 10, 0.5, 0) // q = 0.5, p = 1 (alpha 0)
	pairs := []topo.SDPair{{S: 0, D: 2}}
	set := buildSet(t, net, pairs, segment.DefaultOptions())
	sol, err := SolveCtx(nil, set, Options{SwapWeightedObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	for _, pf := range sol.Paths {
		if pf.Flow > 1e-6 && len(pf.Hops) != 1 {
			t.Fatalf("weighted LP put flow %v on a %d-junction path at q=0.5", pf.Flow, len(pf.Hops)-1)
		}
	}
}

// The weighted objective value is Σ w_P·y_P with w_P = q^junctions; verify
// on a controlled instance. Line 0-1-2 with q = 0.8 everywhere, p = 1,
// channels 2, memory 10: the direct segment 0-2 uses both links with
// factor 1/(1·0.8) = 1.25; capacity 2 per link allows 1.6 units of direct
// flow with weight 1 -> objective 1.6. The link-pair alternative wastes
// memory at node 1 and has weight 0.8 with identical channel cost, so the
// optimum is the direct segment.
func TestSwapWeightedObjectiveValue(t *testing.T) {
	net := lineNetwork(3, 100, 2, 10, 0.8, 0)
	pairs := []topo.SDPair{{S: 0, D: 2}}
	set := buildSet(t, net, pairs, segment.DefaultOptions())
	sol, err := SolveCtx(nil, set, Options{SwapWeightedObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-1.6) > 1e-6 {
		t.Fatalf("objective = %v, want 1.6", sol.Objective)
	}
}

// Weighted objective can never exceed the unweighted optimum (weights <= 1)
// and both must remain feasible; property-checked on random networks.
func TestSwapWeightedBoundedByPlain(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		cfg := topo.DefaultConfig()
		cfg.Nodes = 16
		cfg.SwapProb = 0.7
		net, err := topo.Generate(cfg, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		pairs := topo.ChooseSDPairs(net, 3, xrand.New(seed+50))
		opts := segment.DefaultOptions()
		opts.KPaths = 3
		set := buildSet(t, net, pairs, opts)
		plain, err := SolveCtx(nil, set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		weighted, err := SolveCtx(nil, set, Options{SwapWeightedObjective: true})
		if err != nil {
			t.Fatal(err)
		}
		if weighted.Objective > plain.Objective+1e-6 {
			t.Fatalf("seed %d: weighted %v > plain %v", seed, weighted.Objective, plain.Objective)
		}
		verifyFeasibility(t, set, weighted, nil)
	}
}

// TestSolveParallelPricingDeterministic checks the deterministic-parallelism
// contract of the pricing rounds: Solve must return byte-identical results
// at every worker count, because each pricing goroutine writes only its own
// output slot and columns are inserted in commodity order on the caller's
// goroutine (see internal/par). Floats are compared with ==, not a
// tolerance — any divergence in the basis trajectory is a bug.
func TestSolveParallelPricingDeterministic(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.Nodes = 80
	net, err := topo.Generate(cfg, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 12, xrand.New(8))
	segOpts := segment.DefaultOptions()
	segOpts.MaxSegmentHops = 10
	set := buildSet(t, net, pairs, segOpts)

	for _, weighted := range []bool{false, true} {
		base, err := SolveCtx(nil, set, Options{SwapWeightedObjective: weighted, Workers: 1})
		if err != nil {
			t.Fatalf("weighted=%v workers=1: %v", weighted, err)
		}
		for _, workers := range []int{2, 3, 8} {
			got, err := SolveCtx(nil, set, Options{SwapWeightedObjective: weighted, Workers: workers})
			if err != nil {
				t.Fatalf("weighted=%v workers=%d: %v", weighted, workers, err)
			}
			ctx := fmt.Sprintf("weighted=%v", weighted)
			if got.Objective != base.Objective {
				t.Fatalf("%s workers=%d: objective %v != %v", ctx, workers, got.Objective, base.Objective)
			}
			if got.Rounds != base.Rounds || got.Columns != base.Columns {
				t.Fatalf("%s workers=%d: rounds/columns (%d,%d) != (%d,%d)",
					ctx, workers, got.Rounds, got.Columns, base.Rounds, base.Columns)
			}
			if len(got.PerCommodity) != len(base.PerCommodity) {
				t.Fatalf("%s workers=%d: PerCommodity length mismatch", ctx, workers)
			}
			for i := range base.PerCommodity {
				if got.PerCommodity[i] != base.PerCommodity[i] {
					t.Fatalf("%s workers=%d: PerCommodity[%d] %v != %v",
						ctx, workers, i, got.PerCommodity[i], base.PerCommodity[i])
				}
			}
			if len(got.Paths) != len(base.Paths) {
				t.Fatalf("%s workers=%d: %d paths != %d", ctx, workers, len(got.Paths), len(base.Paths))
			}
			for i := range base.Paths {
				bp, gp := base.Paths[i], got.Paths[i]
				if gp.Commodity != bp.Commodity || gp.Flow != bp.Flow {
					t.Fatalf("%s workers=%d: path %d (commodity,flow) (%d,%v) != (%d,%v)",
						ctx, workers, i, gp.Commodity, gp.Flow, bp.Commodity, bp.Flow)
				}
				if len(gp.Nodes) != len(bp.Nodes) {
					t.Fatalf("%s workers=%d: path %d node count mismatch", ctx, workers, i)
				}
				for j := range bp.Nodes {
					if gp.Nodes[j] != bp.Nodes[j] {
						t.Fatalf("%s workers=%d: path %d node %d differs", ctx, workers, i, j)
					}
				}
				if len(gp.Hops) != len(bp.Hops) {
					t.Fatalf("%s workers=%d: path %d hop count mismatch", ctx, workers, i)
				}
				for j := range bp.Hops {
					if gp.Hops[j].Pair != bp.Hops[j].Pair || gp.Hops[j].Cand != bp.Hops[j].Cand {
						t.Fatalf("%s workers=%d: path %d hop %d differs", ctx, workers, i, j)
					}
				}
			}
		}
	}
}

// TestPriceRealizationsCancelled: the realization scan runs on the calling
// goroutine and still honours its context. A live context prices exactly
// what a nil one does; a cancelled one aborts the scan, and SolveCtx, with
// ctx.Err().
func TestPriceRealizationsCancelled(t *testing.T) {
	set := waxmanPricingSet(t, 0, 1)
	if len(set.EdgePairs) <= realizationPoll {
		t.Fatalf("%d segment edges: the scan polls only once", len(set.EdgePairs))
	}
	m, err := newModel(set, Options{SwapWeightedObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	duals := unitDuals(m.numRows)
	if err := m.priceRealizations(nil, duals); err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(m.bestCost)
	if err := m.priceRealizations(context.Background(), duals); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.bestCost, want) {
		t.Fatal("a live context priced the realizations differently from a nil one")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.priceRealizations(ctx, duals); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan returned %v, want context.Canceled", err)
	}
	if _, err := SolveCtx(ctx, set, Options{SwapWeightedObjective: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v, want context.Canceled", err)
	}
}
