// Package qnet models the quantum-network runtime state inside one time
// slot: channel/memory ledgers with overdraft protection, entanglement
// segments and connections, the stochastic physical phase (segment creation
// attempts, quantum swapping) and the Werner-state fidelity model behind
// the fidelity floors.
package qnet

import (
	"fmt"

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

// FreeChannels returns the free channel count of a link.
func (l *Ledger) FreeChannels(link int) int { return l.chanFree[link] }

// FreeMemory returns the free memory of a node.
func (l *Ledger) FreeMemory(u int) int { return l.memFree[u] }

// CanReserve reports whether one attempt over the candidate fits: one
// channel on each link of the route and one memory unit at each endpoint.
// Interior nodes of the route use all-optical switching and consume no
// memory (the paper's core observation).
func (l *Ledger) CanReserve(c *segment.Candidate) bool {
	for _, e := range c.EdgeIDs {
		if l.chanFree[e] < 1 {
			return false
		}
	}
	u, v := c.Path[0], c.Path[len(c.Path)-1]
	if u == v {
		return l.memFree[u] >= 2
	}
	return l.memFree[u] >= 1 && l.memFree[v] >= 1
}

// Reserve commits one attempt over the candidate.
func (l *Ledger) Reserve(c *segment.Candidate) error {
	if !l.CanReserve(c) {
		return fmt.Errorf("qnet: insufficient resources for segment %v", c.Path)
	}
	for _, e := range c.EdgeIDs {
		l.chanFree[e]--
	}
	l.memFree[c.Path[0]]--
	l.memFree[c.Path[len(c.Path)-1]]--
	return nil
}

// Release returns one attempt's resources to the ledger.
func (l *Ledger) Release(c *segment.Candidate) error {
	for _, e := range c.EdgeIDs {
		if l.chanFree[e]+1 > l.chanCap[e] {
			return fmt.Errorf("qnet: channel over-release on link %d", e)
		}
	}
	u, v := c.Path[0], c.Path[len(c.Path)-1]
	if l.memFree[u]+1 > l.memCap[u] || l.memFree[v]+1 > l.memCap[v] {
		return fmt.Errorf("qnet: memory over-release at segment %v", c.Path)
	}
	for _, e := range c.EdgeIDs {
		l.chanFree[e]++
	}
	l.memFree[u]++
	l.memFree[v]++
	return nil
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

// UsedChannels returns total channels currently reserved.
func (l *Ledger) UsedChannels() int {
	total := 0
	for e, f := range l.chanFree {
		total += l.chanCap[e] - f
	}
	return total
}

// UsedMemory returns total memory currently reserved.
func (l *Ledger) UsedMemory() int {
	total := 0
	for u, f := range l.memFree {
		total += l.memCap[u] - f
	}
	return total
}
