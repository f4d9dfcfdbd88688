// Package greedy implements a non-LP baseline scheduler in the spirit of
// greedy entanglement-routing heuristics (cf. the NIST swapping-order
// greedy): paths are chosen by repeated shortest-path on the segment graph
// under an expected-attempt-cost metric, and channels/memory are reserved
// first-come-first-served until the network is saturated. No linear program
// is solved anywhere, so construction is fast and deadline-proof — which is
// why internal/engines uses this engine as the degradation target when an
// LP-based engine blows its slot budget (ISSUE: graceful LP degradation).
//
// Like the LP engines, planning depends only on the static topology and
// happens once at construction, with no randomness: RunSlot consumes the
// rng only for the physical phase and the swaps, so a fixed rng state
// reproduces the slot exactly.
package greedy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/warm"
)

// Pricing constants for the planning shortest path: infeasible edges get a
// prohibitive weight, and any path that crosses one is rejected (same
// pattern as ECE's auxiliary-graph weights).
const (
	infeasibleWeight = 1e12
	rejectThreshold  = 1e11
)

// Options tunes the greedy engine.
type Options struct {
	// Segment tunes candidate enumeration; the zero value uses the SEE
	// defaults (hop cap 10) so the greedy plans over the same segment
	// catalogue as the engine it substitutes for.
	Segment segment.Options
	// Slot is the slot-level configuration the shared sched.Runner
	// applies; a zero (sched.SEE) Algorithm selects sched.Greedy.
	Slot sched.SlotConfig
	// Warm, when non-nil, memoizes the segment-candidate set across engine
	// (re)builds over the same network (see internal/warm). The engine
	// solves no LP, so the candidate build is the only cacheable stage.
	Warm *warm.Cache
}

// DefaultOptions returns the greedy defaults.
func DefaultOptions() Options {
	seg := segment.DefaultOptions()
	seg.MaxSegmentHops = 10
	return Options{Segment: seg, Slot: sched.SlotConfig{Algorithm: sched.Greedy}}
}

// Engine runs greedy time slots over a fixed network and workload.
type Engine struct {
	Net   *topo.Network
	Pairs []topo.SDPair
	Set   *segment.Set
	// ConnCap is the per-pair connection cap.
	ConnCap []int

	// Runner is the shared slot skeleton; the fixed plan supplies every
	// phase.
	sched.Runner

	fixed    sched.FixedPlan
	expected float64
}

var (
	_ sched.Stateful       = (*Engine)(nil)
	_ sched.Checkpointable = (*Engine)(nil)
)

// NewEngine enumerates candidates and fixes the greedy plan. It never
// solves an LP, so unlike the other engines it needs no context/budget
// variant: construction cost is one Yen enumeration plus a handful of
// Dijkstra runs.
func NewEngine(net *topo.Network, pairs []topo.SDPair, opts Options) (*Engine, error) {
	if net == nil {
		return nil, errors.New("greedy: nil network")
	}
	if len(pairs) == 0 {
		return nil, errors.New("greedy: no SD pairs")
	}
	if opts.Segment.KPaths == 0 && opts.Segment.MaxSegmentHops == 0 {
		d := DefaultOptions()
		opts.Segment = d.Segment
	}
	if opts.Slot.Algorithm == 0 {
		opts.Slot.Algorithm = sched.Greedy
	}
	set, err := opts.Warm.SegmentSet(nil, net, pairs, opts.Segment)
	if err != nil {
		return nil, fmt.Errorf("greedy: building candidates: %w", err)
	}
	connCap := make([]int, len(pairs))
	for i, sd := range pairs {
		connCap[i] = min(net.Memory[sd.S], net.Memory[sd.D])
	}
	e := &Engine{
		Net:     net,
		Pairs:   pairs,
		Set:     set,
		ConnCap: connCap,
		Runner:  sched.NewRunner(opts.Slot, net, set.CandidateFor),
	}
	if err := e.buildPlan(); err != nil {
		return nil, fmt.Errorf("greedy: planning: %w", err)
	}
	return e, nil
}

// buildPlan selects paths round-robin over SD pairs and reserves resources
// first-come-first-served on a qnet.Ledger. Each round routes every
// unsaturated pair on the segment graph, pricing each segment edge at the
// expected-attempt cost 1/(p·√(q_u·q_v)) of its cheapest still-feasible
// realization (Ledger.Cheapest), with node weight −ln q (junctions must
// survive their swap). A selected path reserves up to ⌈1/p⌉ attempts per
// hop — enough for one expected created segment — bounded by the residual
// channels and memory. Rounds repeat until no pair can be routed. A ledger
// error is a bug and is returned.
func (e *Engine) buildPlan() error {
	ledger := qnet.NewLedger(e.Net)
	e.fixed = sched.FixedPlan{ConnCap: e.ConnCap}
	var plan qnet.PlanBuilder

	nodeWeight := func(u int) float64 {
		q := e.Net.SwapProb[u]
		if q <= 0 {
			return infeasibleWeight
		}
		return -math.Log(q)
	}
	edgeWeight := func(id int, _ float64) float64 {
		if _, cost := ledger.Cheapest(e.Net, e.Set.ByEdge[id], nil); !math.IsInf(cost, 1) {
			return cost
		}
		return infeasibleWeight
	}

	planned := make([]int, len(e.Pairs))
	for {
		progress := false
		for i, sd := range e.Pairs {
			if planned[i] >= e.ConnCap[i] {
				continue
			}
			path, dist := graph.ShortestPath(e.Set.SegGraph, sd.S, sd.D, graph.DijkstraOptions{
				NodeWeight: nodeWeight,
				EdgeWeight: edgeWeight,
			})
			if path == nil || dist >= rejectThreshold {
				continue
			}
			var hops []hop
			ok := true
			for h := 0; h+1 < len(path); h++ {
				pk := segment.MakePairKey(path[h], path[h+1])
				cand, _ := ledger.Cheapest(e.Net, e.Set.ByPair[pk], nil)
				if cand == nil {
					ok = false
					break
				}
				// One expected created segment per hop: n ≈ 1/p attempts,
				// bounded by what the residual resources actually fit.
				n := ledger.Width(cand, max(1, int(math.Ceil(1/cand.Prob))))
				if err := ledger.Reserve(cand, n); err != nil {
					return err
				}
				hops = append(hops, hop{pair: pk, cand: cand, attempts: n})
			}
			if !ok {
				// Roll back this path's partial reservations.
				for _, h := range hops {
					if err := ledger.Release(h.cand, h.attempts); err != nil {
						return err
					}
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
	return ledger.Validate()
}

// hop is one planned segment: the endpoint pair, the physical realization
// reserved for it and the number of creation attempts.
type hop struct {
	pair     segment.PairKey
	cand     *segment.Candidate
	attempts int
}

// expectedEstablished is the heuristic value of one planned path: the
// probability every hop realizes at least one segment times the junction
// swap survival. The plan's value is the sum over its paths.
func expectedEstablished(net *topo.Network, nodes graph.Path, hops []hop) float64 {
	p := 1.0
	for _, h := range hops {
		p *= 1 - math.Pow(1-h.cand.Prob, float64(h.attempts))
	}
	for j := 1; j+1 < len(nodes); j++ {
		p *= net.SwapProb[nodes[j]]
	}
	return p
}

// RunSlot simulates one time slot: attempt the fixed plan, then assemble
// the planned paths from realized segments (repeating while redundant
// segments allow retries, like ECE's provisioned pass).
func (e *Engine) RunSlot(rng *rand.Rand) (*sched.SlotResult, error) {
	n := len(e.fixed.Paths)
	return e.Run(&e.fixed, rng, &sched.SlotResult{
		LPObjective:      e.expected,
		PlannedPaths:     n,
		ProvisionedPaths: n,
		PerPair:          make([]int, len(e.Pairs)),
	})
}

// UpperBound returns the heuristic expected established count of the fixed
// plan (not an LP bound — the greedy solves none).
func (e *Engine) UpperBound() float64 { return e.expected }
