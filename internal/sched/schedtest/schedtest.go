// Package schedtest is the cross-engine invariant harness for the slot
// pipeline: helpers that run every registered algorithm (engines.List)
// through the same instances and verify the contracts shared by all
// engines — determinism per seed and worker count, resource bounds,
// tracer reconciliation, and byte-identical disabled paths for the chaos
// and carry-over layers.
//
// The checks live here rather than in each engine's own test file so a
// newly registered engine is subjected to the shared contract
// automatically: the tests iterate the registry, not a hand-kept list.
package schedtest

import (
	"fmt"
	"math/rand"
	"time"

	"see/internal/sched"
	"see/internal/topo"
	"see/internal/xrand"
)

// Instance draws a reproducible test network and demand set. The sizes are
// chosen small enough for the LP engines to solve quickly under -race.
func Instance(nodes, pairs int, seed int64) (*topo.Network, []topo.SDPair, error) {
	cfg := topo.DefaultConfig()
	cfg.Nodes = nodes
	net, err := topo.Generate(cfg, xrand.New(seed))
	if err != nil {
		return nil, nil, err
	}
	return net, topo.ChooseSDPairs(net, pairs, xrand.New(seed+1)), nil
}

// Run executes slots consecutive time slots from a fresh seeded rng and
// returns deep copies of the results (SlotResult.Clone: an engine reuses
// a result's storage at its next slot), safe for reflect.DeepEqual
// between runs.
func Run(eng sched.Engine, seed int64, slots int) ([]sched.SlotResult, error) {
	rng := xrand.New(seed)
	out := make([]sched.SlotResult, 0, slots)
	for s := 0; s < slots; s++ {
		res, err := eng.RunSlot(rng)
		if err != nil {
			return nil, fmt.Errorf("slot %d: %w", s, err)
		}
		out = append(out, *res.Clone())
	}
	return out, nil
}

// Reservation is one AttemptReserved event: count creation attempts on the
// segment endpoint pair ⟨u, v⟩.
type Reservation struct {
	U, V, Count int
}

// SlotRecord collects the per-slot tracer events the invariant checks
// consume.
type SlotRecord struct {
	Reservations []Reservation
	Created      int
}

// RecordingTracer captures AttemptReserved and AttemptResolved events per
// slot so tests can reconcile them against SlotResult counters and the
// network's resource capacities. It is not safe for concurrent use; attach
// one per engine.
type RecordingTracer struct {
	Slots   []SlotRecord
	current *SlotRecord
}

var _ sched.Tracer = (*RecordingTracer)(nil)

// SlotStart implements sched.Tracer.
func (t *RecordingTracer) SlotStart(sched.Algorithm) {
	t.Slots = append(t.Slots, SlotRecord{})
	t.current = &t.Slots[len(t.Slots)-1]
}

// AttemptReserved implements sched.Tracer.
func (t *RecordingTracer) AttemptReserved(u, v, count int) {
	if t.current != nil {
		t.current.Reservations = append(t.current.Reservations, Reservation{U: u, V: v, Count: count})
	}
}

// AttemptResolved implements sched.Tracer.
func (t *RecordingTracer) AttemptResolved(_, _ int, created bool) {
	if t.current != nil && created {
		t.current.Created++
	}
}

// PathPlanned implements sched.Tracer.
func (t *RecordingTracer) PathPlanned(int, int) {}

// PathProvisioned implements sched.Tracer.
func (t *RecordingTracer) PathProvisioned(int) {}

// SwapResolved implements sched.Tracer.
func (t *RecordingTracer) SwapResolved(int, bool) {}

// ConnectionAssembled implements sched.Tracer.
func (t *RecordingTracer) ConnectionAssembled(int, bool) {}

// PhaseDone implements sched.Tracer.
func (t *RecordingTracer) PhaseDone(sched.Phase, time.Duration) {}

// Incident implements sched.Tracer.
func (t *RecordingTracer) Incident(sched.Incident, int) {}

// SlotEnd implements sched.Tracer.
func (t *RecordingTracer) SlotEnd(*sched.SlotResult) {}

// CheckSlotResult verifies the counter relationships every engine's
// SlotResult must satisfy on the given demand set:
//
//   - SegmentsCreated ≤ Attempts (an attempt yields at most one segment),
//   - Established ≤ Assembled (swaps only lose assembled connections),
//   - PerPair sums to Established and matches len(Connections),
//   - PerPair[i] ≤ min(m_s, m_d): a pair's throughput cannot exceed the
//     entangled-photon capacity of its own endpoints, and
//   - every connection validates structurally.
func CheckSlotResult(net *topo.Network, pairs []topo.SDPair, res sched.SlotResult) error {
	if res.SegmentsCreated > res.Attempts {
		return fmt.Errorf("SegmentsCreated %d > Attempts %d", res.SegmentsCreated, res.Attempts)
	}
	if res.Established > res.Assembled {
		return fmt.Errorf("Established %d > Assembled %d", res.Established, res.Assembled)
	}
	if len(res.PerPair) != len(pairs) {
		return fmt.Errorf("PerPair has %d entries for %d pairs", len(res.PerPair), len(pairs))
	}
	sum := 0
	for i, c := range res.PerPair {
		if c < 0 {
			return fmt.Errorf("PerPair[%d] = %d is negative", i, c)
		}
		cap := min(net.Memory[pairs[i].S], net.Memory[pairs[i].D])
		if c > cap {
			return fmt.Errorf("PerPair[%d] = %d exceeds endpoint memory cap %d", i, c, cap)
		}
		sum += c
	}
	if sum != res.Established {
		return fmt.Errorf("PerPair sums to %d, Established is %d", sum, res.Established)
	}
	if len(res.Connections) != res.Established {
		return fmt.Errorf("%d connections for Established %d", len(res.Connections), res.Established)
	}
	for i, c := range res.Connections {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("connection %d: %w", i, err)
		}
	}
	return nil
}

// CheckReservations reconciles one slot's AttemptReserved events against
// the slot result and the network's memory capacities: the event counts
// must sum to SlotResult.Attempts, and no node may have more reserved
// attempts than memory units m_u (each attempt pins one photon at each
// endpoint of its segment).
func CheckReservations(net *topo.Network, rec SlotRecord, res sched.SlotResult) error {
	total := 0
	perNode := make([]int, net.NumNodes())
	for _, r := range rec.Reservations {
		if r.Count <= 0 {
			return fmt.Errorf("reservation ⟨%d,%d⟩ has non-positive count %d", r.U, r.V, r.Count)
		}
		total += r.Count
		perNode[r.U] += r.Count
		perNode[r.V] += r.Count
	}
	if total != res.Attempts {
		return fmt.Errorf("reservation events sum to %d, SlotResult.Attempts is %d", total, res.Attempts)
	}
	if rec.Created != res.SegmentsCreated {
		return fmt.Errorf("resolved-created events sum to %d, SlotResult.SegmentsCreated is %d",
			rec.Created, res.SegmentsCreated)
	}
	for u, n := range perNode {
		if n > net.Memory[u] {
			return fmt.Errorf("node %d has %d reserved attempts, memory size is %d", u, n, net.Memory[u])
		}
	}
	return nil
}

// NewRng returns a fresh engine rng for the seed (a convenience alias so
// invariant tests do not import xrand directly).
func NewRng(seed int64) *rand.Rand { return xrand.New(seed) }
