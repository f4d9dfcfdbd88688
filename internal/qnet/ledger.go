// Package qnet models the quantum-network runtime state inside one time
// slot: channel/memory ledgers with overdraft protection, entanglement
// segments and connections, the stochastic physical phase (segment creation
// attempts, quantum swapping) and the Werner-state fidelity model behind
// the fidelity floors.
package qnet

import (
	"fmt"
	"math"

	"see/internal/segment"
	"see/internal/topo"
)

// Ledger tracks the free quantum channels per link and free quantum memory
// per node during resource reservation. All mutations are checked: the
// ledger never goes negative and releases never exceed capacity.
type Ledger struct {
	chanCap  []int
	memCap   []int
	chanFree []int
	memFree  []int
}

// NewLedger returns a full ledger for the network.
func NewLedger(net *topo.Network) *Ledger {
	return NewLedgerWithCapacities(net, nil, nil)
}

// NewLedgerWithCapacities returns a full ledger with explicit per-link
// channel and per-node memory capacities overriding the network's tables
// (nil keeps the network values). Fault-aware engines reserve against the
// forecast-shrunk capacities this way, so planning on a full topology with
// announced outages is indistinguishable from planning on the pre-shrunk
// topology itself.
func NewLedgerWithCapacities(net *topo.Network, channels, memory []int) *Ledger {
	if channels == nil {
		channels = net.Channels
	}
	if memory == nil {
		memory = net.Memory
	}
	l := &Ledger{
		chanCap:  channels,
		memCap:   memory,
		chanFree: make([]int, net.NumLinks()),
		memFree:  make([]int, net.NumNodes()),
	}
	copy(l.chanFree, channels)
	copy(l.memFree, memory)
	return l
}

// Reset refills the ledger to its capacities, releasing every reservation
// at once. Engines keep one ledger per instance and Reset it at slot start
// instead of allocating a fresh one (the capacity tables never change
// within an engine's lifetime).
func (l *Ledger) Reset() {
	copy(l.chanFree, l.chanCap)
	copy(l.memFree, l.memCap)
}

// Free returns the free channels per link and the free memory per node.
// The slices are the ledger's own: callers read them (REPS re-solves its LP
// over them) and never write.
func (l *Ledger) Free() (channels, memory []int) { return l.chanFree, l.memFree }

// CanReserve reports whether one attempt over the candidate fits: one
// channel on each link of the route and one memory unit at each endpoint.
// Interior nodes of the route use all-optical switching and consume no
// memory (the paper's core observation). It is Width(c, 1) == 1 with early
// exits, because Cheapest calls it on every realization it prices.
func (l *Ledger) CanReserve(c *segment.Candidate) bool {
	if l.memFree[c.Path[0]] < 1 || l.memFree[c.Path[len(c.Path)-1]] < 1 {
		return false
	}
	for _, e := range c.EdgeIDs {
		if l.chanFree[e] < 1 {
			return false
		}
	}
	return true
}

// TryReserve commits one attempt over the candidate if it fits and
// reports whether it did: CanReserve, then Reserve(c, 1) without
// Reserve's second check of what CanReserve just read. It changes nothing
// when it returns false.
func (l *Ledger) TryReserve(c *segment.Candidate) bool {
	if !l.CanReserve(c) {
		return false
	}
	l.take(c, 1)
	return true
}

// Width returns how many attempts over the candidate fit, up to want: the
// least of want, the free channels on each link of its route and the free
// memory at its endpoints.
func (l *Ledger) Width(c *segment.Candidate, want int) int {
	n := want
	for _, e := range c.EdgeIDs {
		n = min(n, l.chanFree[e])
	}
	return min(n, l.memFree[c.Path[0]], l.memFree[c.Path[len(c.Path)-1]])
}

// Reserve commits n attempts over the candidate. It fails, changing
// nothing, when n is negative or more than Width(c, n).
func (l *Ledger) Reserve(c *segment.Candidate, n int) error {
	if n < 0 || l.Width(c, n) < n {
		return fmt.Errorf("qnet: insufficient resources for %d attempts over segment %v", n, c.Path)
	}
	l.take(c, n)
	return nil
}

// take takes n attempts' resources over the candidate from the ledger,
// unchecked: Reserve and TryReserve check that they fit first.
func (l *Ledger) take(c *segment.Candidate, n int) {
	for _, e := range c.EdgeIDs {
		l.chanFree[e] -= n
	}
	l.memFree[c.Path[0]] -= n
	l.memFree[c.Path[len(c.Path)-1]] -= n
}

// Release returns n attempts' resources to the ledger. It fails, changing
// nothing, when n is negative or the release would exceed a capacity.
func (l *Ledger) Release(c *segment.Candidate, n int) error {
	if n < 0 {
		return fmt.Errorf("qnet: negative release of %d attempts over segment %v", n, c.Path)
	}
	for _, e := range c.EdgeIDs {
		if l.chanFree[e]+n > l.chanCap[e] {
			return fmt.Errorf("qnet: channel over-release on link %d", e)
		}
	}
	u, v := c.Path[0], c.Path[len(c.Path)-1]
	if l.memFree[u]+n > l.memCap[u] || l.memFree[v]+n > l.memCap[v] {
		return fmt.Errorf("qnet: memory over-release at segment %v", c.Path)
	}
	for _, e := range c.EdgeIDs {
		l.chanFree[e] += n
	}
	l.memFree[u] += n
	l.memFree[v] += n
	return nil
}

// Cheapest returns the realization among cands, other than not, with the
// least segment.AttemptFactor that still fits one attempt, and that
// factor. Ties keep the earlier candidate. It returns nil and +Inf when no
// realization fits and can carry flow.
func (l *Ledger) Cheapest(net *topo.Network, cands []*segment.Candidate, not *segment.Candidate) (*segment.Candidate, float64) {
	var best *segment.Candidate
	bestCost := math.Inf(1)
	for _, c := range cands {
		if c == not || !l.CanReserve(c) {
			continue
		}
		if cost := segment.AttemptFactor(net, c); cost < bestCost {
			best, bestCost = c, cost
		}
	}
	return best, bestCost
}

// Validate checks the ledger invariants 0 ≤ free ≤ capacity.
func (l *Ledger) Validate() error {
	for e, f := range l.chanFree {
		if f < 0 || f > l.chanCap[e] {
			return fmt.Errorf("qnet: link %d free channels %d outside [0,%d]", e, f, l.chanCap[e])
		}
	}
	for u, f := range l.memFree {
		if f < 0 || f > l.memCap[u] {
			return fmt.Errorf("qnet: node %d free memory %d outside [0,%d]", u, f, l.memCap[u])
		}
	}
	return nil
}
