// Package oracle computes per-pair entanglement-capacity upper bounds from
// the topology alone. It is registered as a pseudo-engine (sched.Oracle) so
// sweeps can run it alongside the real schemes and report every engine's
// delivered throughput as a fraction of what the network could
// theoretically deliver — but it establishes nothing, consumes no
// randomness and ignores faults.
//
// Two bounds are computed per SD pair:
//
//   - Hard: the structural per-slot ceiling. Every established connection
//     routes through the physical topology consuming at least one quantum
//     channel on every link it crosses, so the s-t min-cut over channel
//     counts bounds the per-slot deliveries; so do the endpoint memories
//     (each connection pins one qubit at the source and one at the
//     destination for the slot). Hard = min(min-cut(channels), mem_S,
//     mem_D) holds slot by slot for any memoryless scheduler and any fault
//     plan. Under a carry-over bank the channel-cut argument applies to
//     segment creations rather than deliveries (a banked segment crossed
//     the cut in the slot that created it), so the bound then holds
//     cumulatively: no run of T slots starting from an empty bank delivers
//     more than T·Hard connections for the pair.
//
//   - Expected: the statistical rate ceiling. Scaling each link's channel
//     count by its single-hop entanglement success probability before the
//     min-cut bounds the expected number of usable channel crossings per
//     slot. It is an expectation, not a per-slot guarantee — lucky slots
//     can exceed it — so invariant tests pin Hard and reports quote
//     Expected.
package oracle

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"see/internal/graph"
	"see/internal/sched"
	"see/internal/topo"
)

// rateScale converts fractional expected-rate capacities to the integer
// capacities graph.MaxFlow works in: six decimal digits of rate resolution,
// far below the one-connection granularity anything downstream compares
// against.
const rateScale = 1e6

// Bound is the capacity ceiling of one SD pair.
type Bound struct {
	// Pair is the demand the bound applies to.
	Pair topo.SDPair
	// Hard is the structural per-slot ceiling: no scheduler can establish
	// more than Hard connections for this pair in any single slot.
	Hard int
	// Expected is the statistical rate ceiling in connections per slot,
	// never above Hard. Zero-probability links contribute nothing, so a
	// pair cut off by dead fibre has Expected 0 even when Hard is positive.
	Expected float64
}

// ComputeBounds evaluates both bounds for every pair. It builds one flow
// network over the physical topology and both capacity vectors once, so
// each link's success probability is evaluated once per call, and resets
// the network to the right vector before every min-cut. Max-flow values
// are unique, so reusing the network cannot change a bound; the cost is
// O(pairs · Dinic), negligible next to an LP solve.
func ComputeBounds(net *topo.Network, pairs []topo.SDPair) []Bound {
	mf, hardCap, scaledCap := flowNetwork(net)
	out := make([]Bound, len(pairs))
	for i, p := range pairs {
		mf.Reset(hardCap)
		hard := mf.Solve(p.S, p.D)
		if m := net.Memory[p.S]; m < hard {
			hard = m
		}
		if m := net.Memory[p.D]; m < hard {
			hard = m
		}
		mf.Reset(scaledCap)
		expected := float64(mf.Solve(p.S, p.D)) / rateScale
		if expected > float64(hard) {
			expected = float64(hard)
		}
		out[i] = Bound{Pair: p, Hard: hard, Expected: expected}
	}
	return out
}

// flowNetwork builds the flow network over the physical topology, one
// undirected arc pair per link, added from its lower-numbered endpoint's
// adjacency list (both directions share an edge ID), and its two
// per-arc capacity vectors: the link's channel count, and that count
// scaled by the link's single-hop success probability in units of
// 1/rateScale.
func flowNetwork(net *topo.Network) (mf *graph.MaxFlow, hardCap, scaledCap []int) {
	mf = graph.NewMaxFlow(net.NumNodes())
	hardCap = make([]int, 0, 2*len(net.Channels))
	scaledCap = make([]int, 0, 2*len(net.Channels))
	hop := make(graph.Path, 2)
	for u := 0; u < net.NumNodes(); u++ {
		for _, e := range net.G.Neighbors(u) {
			if u < e.To {
				c := net.Channels[e.ID]
				hop[0], hop[1] = u, e.To
				prob := net.SegmentSuccessProb(hop)
				scaled := int(math.Round(rateScale * float64(c) * prob))
				mf.AddUndirected(u, e.To, c)
				hardCap = append(hardCap, c, c)
				scaledCap = append(scaledCap, scaled, scaled)
			}
		}
	}
	return mf, hardCap, scaledCap
}

// Engine is the oracle pseudo-engine. RunSlot delivers nothing and draws
// nothing from the rng; its SlotResult carries the summed Expected bound as
// the LP-objective field so sweep reports can print capacity next to real
// engines' throughput.
type Engine struct {
	// Runner supplies the scheme label, tracer, bank and checkpointing.
	// The oracle runs no slot phases, so RunSlot bypasses Runner.Run, and
	// it holds a bank without ever depositing or withdrawing: capacity
	// bounds are properties of the topology, not of banked inventory.
	sched.Runner

	net    *topo.Network
	pairs  []topo.SDPair
	bounds []Bound
	total  float64
}

var _ sched.Stateful = (*Engine)(nil)

// NewEngine validates the network and computes the bounds eagerly; there is
// no per-slot work left afterwards. The tracer (nil = none) observes only
// slot boundaries: the oracle plans no paths, reserves no attempts and
// assembles no connections, so no other callback ever fires.
func NewEngine(net *topo.Network, pairs []topo.SDPair, tr sched.Tracer) (*Engine, error) {
	if net == nil {
		return nil, errors.New("oracle: nil network")
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	for _, p := range pairs {
		if p.S < 0 || p.D < 0 || p.S >= net.NumNodes() || p.D >= net.NumNodes() {
			return nil, fmt.Errorf("oracle: pair (%d,%d) outside network", p.S, p.D)
		}
	}
	e := &Engine{
		Runner: sched.NewRunner(sched.SlotConfig{Algorithm: sched.Oracle, Tracer: tr}, net, nil),
		net:    net,
		pairs:  pairs,
		bounds: ComputeBounds(net, pairs),
	}
	for _, b := range e.bounds {
		e.total += b.Expected
	}
	return e, nil
}

// Bounds returns the per-pair capacity bounds, in demand order.
func (e *Engine) Bounds() []Bound { return e.bounds }

// UpperBound implements sched.Engine: the summed Expected bound.
func (e *Engine) UpperBound() float64 { return e.total }

// RunSlot implements sched.Engine. The rng is deliberately untouched — an
// oracle that consumed randomness would perturb seeded comparisons run in
// the same sweep.
func (e *Engine) RunSlot(*rand.Rand) (*sched.SlotResult, error) {
	tr := e.Tracer()
	tr.SlotStart(sched.Oracle)
	res := &sched.SlotResult{
		LPObjective: e.total,
		PerPair:     make([]int, len(e.pairs)),
	}
	tr.SlotEnd(res)
	return res, nil
}
