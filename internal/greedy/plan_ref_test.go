package greedy

// The pre-ledger greedy planner, kept verbatim (renamed with a Reference
// suffix) as the reference the ledger-based buildPlan is pinned to: it
// hand-rolls its residual channel and memory tables and their rollback.

import (
	"math"
	"slices"
	"testing"

	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// buildPlanReference selects paths round-robin over SD pairs and reserves resources
// first-come-first-served. Each round routes every unsaturated pair on the
// segment graph, pricing each segment edge at the expected-attempt cost
// 1/(p·√(q_u·q_v)) of its cheapest still-feasible realization, with node
// weight −ln q (junctions must survive their swap). A selected path
// reserves up to ⌈1/p⌉ attempts per hop — enough for one expected created
// segment — bounded by the residual channels and memory. Rounds repeat
// until no pair can be routed.
func (e *Engine) buildPlanReference() {
	channels := append([]int(nil), e.Net.Channels...)
	memory := append([]int(nil), e.Net.Memory...)
	e.fixed = sched.FixedPlan{ConnCap: e.ConnCap}
	var plan qnet.PlanBuilder

	// cheapestFeasible returns the lowest-cost realization of the edge's
	// pair that fits at least one attempt in the residual resources.
	cheapestFeasible := func(pk segment.PairKey) (*segment.Candidate, float64) {
		var best *segment.Candidate
		bestCost := math.Inf(1)
		for _, c := range e.Set.ByPair[pk] {
			fits := memory[pk.U] >= 1 && memory[pk.V] >= 1
			for _, id := range c.EdgeIDs {
				if channels[id] < 1 {
					fits = false
					break
				}
			}
			if !fits {
				continue
			}
			cost := attemptCostReference(e.Net, c)
			if cost < bestCost {
				best, bestCost = c, cost
			}
		}
		return best, bestCost
	}

	nodeWeight := func(u int) float64 {
		q := e.Net.SwapProb[u]
		if q <= 0 {
			return infeasibleWeight
		}
		return -math.Log(q)
	}
	edgeWeight := func(id int) float64 {
		if _, cost := cheapestFeasible(e.Set.EdgePairs[id]); !math.IsInf(cost, 1) {
			return cost
		}
		return infeasibleWeight
	}
	// The searches read the two weights as tables, filled afresh before
	// each search from the state at that moment.
	opts := graph.DijkstraOptions{NodeCost: make([]float64, len(e.Net.SwapProb)), EdgeCost: make([]float64, len(e.Set.EdgePairs))}
	for u := range opts.NodeCost {
		opts.NodeCost[u] = nodeWeight(u)
	}

	planned := make([]int, len(e.Pairs))
	for {
		progress := false
		for i, sd := range e.Pairs {
			if planned[i] >= e.ConnCap[i] {
				continue
			}
			for id := range opts.EdgeCost {
				opts.EdgeCost[id] = edgeWeight(id)
			}
			path, dist := graph.ShortestPathTarget(e.Set.SegGraph, sd.S, sd.D, opts, nil)
			if path == nil || dist >= rejectThreshold {
				continue
			}
			var hops []hop
			ok := true
			for h := 0; h+1 < len(path); h++ {
				pk := segment.MakePairKey(path[h], path[h+1])
				cand, cost := cheapestFeasible(pk)
				if cand == nil || math.IsInf(cost, 1) {
					ok = false
					break
				}
				// One expected created segment per hop: n ≈ 1/p attempts,
				// bounded by what the residual resources actually fit.
				n := int(math.Ceil(1 / cand.Prob))
				if n < 1 {
					n = 1
				}
				for _, id := range cand.EdgeIDs {
					if channels[id] < n {
						n = channels[id]
					}
				}
				if memory[pk.U] < n {
					n = memory[pk.U]
				}
				if memory[pk.V] < n {
					n = memory[pk.V]
				}
				if n < 1 {
					ok = false
					break
				}
				for _, id := range cand.EdgeIDs {
					channels[id] -= n
				}
				memory[pk.U] -= n
				memory[pk.V] -= n
				hops = append(hops, hop{pair: pk, cand: cand, attempts: n})
			}
			if !ok {
				// Roll back this path's partial reservations.
				for _, h := range hops {
					for _, id := range h.cand.EdgeIDs {
						channels[id] += h.attempts
					}
					memory[h.pair.U] += h.attempts
					memory[h.pair.V] += h.attempts
				}
				continue
			}
			fp := sched.FixedPath{Commodity: i, Nodes: path}
			for _, h := range hops {
				plan.Add(h.cand, h.attempts)
				fp.Hops = append(fp.Hops, h.pair)
			}
			e.fixed.Paths = append(e.fixed.Paths, fp)
			e.expected += expectedEstablished(e.Net, path, hops)
			planned[i]++
			progress = true
		}
		if !progress {
			break
		}
	}
	e.fixed.Plan = plan.Plan()
}

// attemptCostReference is the expected number of attempts a unit of flow costs on
// the candidate: 1/(p·√(q_u·q_v)), the same metric the LP prices columns
// with (+Inf when the realization cannot support flow).
func attemptCostReference(net *topo.Network, c *segment.Candidate) float64 {
	qu := net.SwapProb[c.Path[0]]
	qv := net.SwapProb[c.Path[len(c.Path)-1]]
	den := c.Prob * math.Sqrt(qu*qv)
	if den <= 1e-12 {
		return math.Inf(1)
	}
	return 1 / den
}

// TestPlanMatchesReference pins the ledger-based planner to the
// hand-rolled reference on 50 random instances: 50–300 nodes, 2–7
// channels per link, jittered channels and memories. Paths, hops, the
// attempt plan and the expected value must match bit for bit.
func TestPlanMatchesReference(t *testing.T) {
	instances := 50
	if testing.Short() {
		instances = 10
	}
	paths := 0
	for k := 0; k < instances; k++ {
		rng := xrand.New(int64(700 + k))
		cfg := topo.DefaultConfig()
		cfg.Nodes = 50 + rng.Intn(251)
		cfg.Channels = 2 + rng.Intn(6)
		cfg.ChannelJitter = rng.Intn(cfg.Channels)
		cfg.MemoryJitter = rng.Intn(cfg.Memory)
		net, err := topo.Generate(cfg, xrand.New(int64(k)))
		if err != nil {
			t.Fatal(err)
		}
		pairs := topo.ChooseSDPairs(net, 5+rng.Intn(16), xrand.New(int64(k)+1))
		e, err := newEngine(net, pairs)
		if err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
		ref := &Engine{Net: e.Net, Pairs: e.Pairs, Set: e.Set, ConnCap: e.ConnCap}
		ref.buildPlanReference()
		if math.Float64bits(e.expected) != math.Float64bits(ref.expected) {
			t.Fatalf("instance %d: expected %v, reference %v", k, e.expected, ref.expected)
		}
		if !slices.Equal(e.fixed.Plan, ref.fixed.Plan) {
			t.Fatalf("instance %d: plan %v, reference %v", k, e.fixed.Plan, ref.fixed.Plan)
		}
		if !slices.EqualFunc(e.fixed.Paths, ref.fixed.Paths, func(a, b sched.FixedPath) bool {
			return a.Commodity == b.Commodity && slices.Equal(a.Nodes, b.Nodes) && slices.Equal(a.Hops, b.Hops)
		}) {
			t.Fatalf("instance %d: paths %v, reference %v", k, e.fixed.Paths, ref.fixed.Paths)
		}
		paths += len(e.fixed.Paths)
	}
	if paths == 0 {
		t.Fatal("vacuous comparison: no path planned")
	}
}
