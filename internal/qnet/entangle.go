package qnet

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"see/internal/graph"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// Segment is a successfully created entanglement segment: a Bell pair whose
// photons are stored at nodes A and B.
type Segment struct {
	// A < B are the endpoint nodes holding the entangled photons.
	A, B int
	// Cand is the physical realization the segment was created over.
	Cand *segment.Candidate
	// consumed marks the segment as used by a connection.
	consumed bool
	// wernerScale is the age-decay multiplier on the segment's Werner
	// parameter (0 means the zero-value default of 1: a fresh segment).
	// The state bank stamps it at withdrawal from the segment's banked
	// age, so carried segments arrive degraded.
	wernerScale float64
	// born is one more than the creation slot the state bank stamped at
	// withdrawal, so a re-deposit keeps the segment's age; 0 for a
	// segment the bank never held.
	born int
}

// Pair returns the endpoint pair key.
func (s *Segment) Pair() segment.PairKey { return segment.MakePairKey(s.A, s.B) }

// Consumed reports whether the segment has been assigned to a connection.
func (s *Segment) Consumed() bool { return s.consumed }

// WernerScale returns the age-decay multiplier applied to the segment's
// Werner parameter on top of its creation fidelity (1 for fresh segments).
func (s *Segment) WernerScale() float64 {
	if s.wernerScale == 0 {
		return 1
	}
	return s.wernerScale
}

// SetWernerScale stamps the age-decay multiplier (the state bank calls it
// at withdrawal; values are clamped to [0,1] by construction there).
func (s *Segment) SetWernerScale(w float64) { s.wernerScale = w }

// BankBirth returns the creation slot the state bank stamped on the
// segment at withdrawal, and false for a segment the bank never held.
func (s *Segment) BankBirth() (slot int, ok bool) { return s.born - 1, s.born > 0 }

// SetBankBirth stamps the segment's creation slot (the state bank calls it
// at withdrawal, so an unconsumed re-deposit keeps the segment's age).
func (s *Segment) SetBankBirth(slot int) { s.born = slot + 1 }

// PlanEntry is one candidate realization with the number of creation
// attempts reserved for it (an x^k_uv of the paper).
type PlanEntry struct {
	Cand *segment.Candidate
	N    int
}

// AttemptPlan lists the reserved creation attempts in the order the
// physical phase fires them: ascending candidate ID, which is by endpoint
// pair, then candidate path (segment.Candidate.ID). Every entry has N > 0
// and a distinct candidate. A PlanBuilder emits plans in that order.
type AttemptPlan []PlanEntry

// TotalAttempts sums the attempts in the plan.
func (p AttemptPlan) TotalAttempts() int {
	total := 0
	for _, e := range p {
		total += e.N
	}
	return total
}

// ExpectedSegments returns Σ x^k_uv · p^k_uv over the plan.
func (p AttemptPlan) ExpectedSegments() float64 {
	var total float64
	for _, e := range p {
		total += float64(e.N) * e.Cand.Prob
	}
	return total
}

// PlanBuilder accumulates attempt counts for the candidates of one
// segment.Set and emits them as an AttemptPlan. Counts live in dense
// tables by candidate ID, so adding is an index, and a bitset marks the
// IDs touched since the last Reset, so Plan and Reset walk them in
// ascending ID order without sorting. The zero value is ready to use.
type PlanBuilder struct {
	counts  []int                // candidate ID → attempts
	cands   []*segment.Candidate // candidate ID → candidate, nil if untouched
	touched []uint64             // bit id set iff cands[id] is non-nil
	plan    AttemptPlan
}

// Add adds n (possibly negative, to roll back) attempts on c.
func (b *PlanBuilder) Add(c *segment.Candidate, n int) {
	id := c.ID
	if id >= len(b.counts) {
		grow := id + 1 - len(b.counts)
		b.counts = append(b.counts, make([]int, grow)...)
		b.cands = append(b.cands, make([]*segment.Candidate, grow)...)
		if words := (id >> 6) + 1; words > len(b.touched) {
			b.touched = append(b.touched, make([]uint64, words-len(b.touched))...)
		}
	}
	switch b.cands[id] {
	case c:
	case nil:
		b.cands[id] = c
		b.touched[id>>6] |= 1 << (id & 63)
	default:
		panic("qnet: PlanBuilder given two candidates with one ID")
	}
	b.counts[id] += n
}

// Count returns the attempts accumulated on c.
func (b *PlanBuilder) Count(c *segment.Candidate) int {
	if c.ID < len(b.counts) && b.cands[c.ID] == c {
		return b.counts[c.ID]
	}
	return 0
}

// Plan returns the accumulated positive counts in candidate ID order. The
// slice is the builder's own, valid until the next Plan or Reset.
func (b *PlanBuilder) Plan() AttemptPlan {
	out := b.plan[:0]
	for w, word := range b.touched {
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			if n := b.counts[id]; n > 0 {
				out = append(out, PlanEntry{Cand: b.cands[id], N: n})
			}
		}
	}
	b.plan = out
	return out
}

// Reset zeroes every count, visiting only the touched IDs.
func (b *PlanBuilder) Reset() {
	for w, word := range b.touched {
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			b.counts[id] = 0
			b.cands[id] = nil
		}
		b.touched[w] = 0
	}
}

// AttemptObserver is notified of each physical creation attempt's outcome.
type AttemptObserver func(c *segment.Candidate, created bool)

// FaultModel is the chaos hook the physical phase consults (implemented by
// chaos.Injector). Implementations must be deterministic and must never
// consume the engine's rng: CandidateBlocked decides whether an attempt's
// physical route is down this slot (the attempt fails without an rng draw,
// keeping faulty runs reproducible from the fault plan alone), and
// SegmentDecohered decides, per realized segment in creation order, whether
// quantum memory lost it before the stitch phase.
type FaultModel interface {
	CandidateBlocked(c *segment.Candidate) bool
	SegmentDecohered() bool
}

// CapacityModel is the optional brownout extension a FaultModel may also
// implement (chaos.Injector does): CapAttempts bounds the attempts actually
// fired for a candidate by the per-slot channel budgets of browned-out
// links on its route, charging what it grants. Like blocked candidates,
// denied attempts fail without consuming rng, so brownout damage is a pure
// function of the fault plan.
type CapacityModel interface {
	CapAttempts(c *segment.Candidate, want int) int
}

// arenaChunk is the number of segments in one Arena chunk.
const arenaChunk = 256

// Arena is slot-scoped Segment storage: the physical phase realizes a
// slot's segments into it, and Reset hands the storage back at the next
// slot's start. Segments live in fixed-size chunks that are never moved,
// so a pointer stays valid while more segments are appended, until the
// next Reset. Anything that outlives the slot (the state bank) copies
// segments out by value. The zero value is ready to use.
type Arena struct {
	chunks [][]Segment
	n      int // segments in use
}

// Reset releases every segment for reuse. Pointers handed out before it
// are dead afterwards.
func (a *Arena) Reset() { a.n = 0 }

// add stores a fresh segment of candidate c and returns its address.
func (a *Arena) add(c *segment.Candidate) *Segment {
	ci, off := a.n/arenaChunk, a.n%arenaChunk
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Segment, arenaChunk))
	}
	s := &a.chunks[ci][off]
	*s = Segment{A: c.U(), B: c.V(), Cand: c}
	a.n++
	return s
}

// Attempt performs a plan's creation attempts: every reserved attempt
// succeeds independently with its candidate's probability, in plan order,
// so a fixed rng yields a fixed outcome. Realized segments are stored in
// the arena and appended to dst, in creation order; the extended slice is
// returned.
//
// Every argument after rng may be nil. Under a fault model, attempts whose
// candidate is blocked fail deterministically, consuming no randomness, so
// the rng stream of the surviving attempts — and with it the whole slot —
// is a pure function of (engine seed, fault plan). The observer sees every
// attempt in the same deterministic order and does not affect the rng
// stream.
func (a *Arena) Attempt(dst []*Segment, plan AttemptPlan, rng *rand.Rand, fm FaultModel, obs AttemptObserver) []*Segment {
	cm, _ := fm.(CapacityModel)
	for _, e := range plan {
		c := e.Cand
		if fm != nil && fm.CandidateBlocked(c) {
			if obs != nil {
				for k := 0; k < e.N; k++ {
					obs(c, false)
				}
			}
			continue
		}
		// Brownouts cap the attempts the route's channels can carry this
		// slot; the remainder fails deterministically, rng untouched.
		granted := e.N
		if cm != nil {
			granted = cm.CapAttempts(c, granted)
		}
		for k := 0; k < granted; k++ {
			created := xrand.Bernoulli(rng, c.Prob)
			if created {
				dst = append(dst, a.add(c))
			}
			if obs != nil {
				obs(c, created)
			}
		}
		if obs != nil {
			for k := granted; k < e.N; k++ {
				obs(c, false)
			}
		}
	}
	return dst
}

// ApplyDecoherence filters realized segments through the fault model's
// memory-decoherence stream (in creation order) and returns the survivors
// plus the number lost. A nil model keeps everything.
func ApplyDecoherence(segs []*Segment, fm FaultModel) ([]*Segment, int) {
	if fm == nil {
		return segs, 0
	}
	kept := segs[:0]
	lost := 0
	for _, s := range segs {
		if fm.SegmentDecohered() {
			lost++
			continue
		}
		kept = append(kept, s)
	}
	return kept, lost
}

// Connection is an end-to-end entanglement connection assembled from
// segments, pending its swap operations.
type Connection struct {
	// Pair indexes the SD pair the connection serves.
	Pair int
	// Nodes is the junction sequence s, j₁, …, d.
	Nodes graph.Path
	// Segments are the entanglement segments between consecutive junction
	// nodes.
	Segments []*Segment
	// Spares are extra segments consumed by junction-level swap retries
	// (see EstablishOrderedObserved).
	Spares []*Segment
	// Fidelity is the delivered end-to-end fidelity under the default
	// Werner model, recorded when the connection is established (0 until
	// then). It is computed by the same PredictFidelity the floor checks
	// use, over Segments only — spares replace measured photons, they do
	// not change the delivered pair count or composition length.
	Fidelity float64
}

// Clone returns a deep copy of the connection: its own node sequence and
// copies of its segments and spares (their candidates shared). Empty
// segment lists come back nil, as a freshly assembled connection has them,
// whatever backing array a reused connection kept.
func (c *Connection) Clone() *Connection {
	out := *c
	out.Nodes = slices.Clone(c.Nodes)
	out.Segments = cloneSegments(c.Segments)
	out.Spares = cloneSegments(c.Spares)
	return &out
}

// cloneSegments copies each segment into one fresh backing array.
func cloneSegments(segs []*Segment) []*Segment {
	if len(segs) == 0 {
		return nil
	}
	vals := make([]Segment, len(segs))
	out := make([]*Segment, len(segs))
	for i, s := range segs {
		vals[i] = *s
		out[i] = &vals[i]
	}
	return out
}

// Junctions returns the intermediate nodes that must perform quantum
// swapping.
func (c *Connection) Junctions() []int {
	if len(c.Nodes) <= 2 {
		return nil
	}
	return c.Nodes[1 : len(c.Nodes)-1]
}

// Validate checks the connection's structural invariants.
func (c *Connection) Validate() error {
	if len(c.Nodes) < 2 {
		return fmt.Errorf("qnet: connection with %d nodes", len(c.Nodes))
	}
	if len(c.Segments) != len(c.Nodes)-1 {
		return fmt.Errorf("qnet: %d segments for %d nodes", len(c.Segments), len(c.Nodes))
	}
	for i, s := range c.Segments {
		want := segment.MakePairKey(c.Nodes[i], c.Nodes[i+1])
		if s.Pair() != want {
			return fmt.Errorf("qnet: segment %d spans %+v, want %+v", i, s.Pair(), want)
		}
	}
	return nil
}

// SuccessProb returns the analytic probability that all junction swaps
// succeed in a single pass (no retries).
func (c *Connection) SuccessProb(net *topo.Network) float64 {
	p := 1.0
	for _, u := range c.Junctions() {
		p *= net.SwapProb[u]
	}
	return p
}

// SwapObserver is notified of each sampled quantum swap's outcome.
type SwapObserver func(junction int, ok bool)

// EstablishOrderedObserved performs the connection's junction swaps with
// segment-level retries: when the swap at a junction fails, the two photons
// it measured are lost, but if the pool still holds a spare segment for
// each of the junction's incident hops, the junction re-creates its local
// pair state and retries. This is exactly the failure mode the provisioning
// LP budgets for when constraint (1d) apportions √(q_u·q_v) of the swap
// success onto each incident segment — redundant segments convert swap
// failures into extra resource consumption instead of lost connections.
//
// Consumed spares are recorded in c.Spares. The return value reports
// whether every junction eventually succeeded; on failure all consumed
// segments stay consumed (the photons are gone either way). The observer
// (may be nil) sees every sampled swap and does not affect the rng stream.
// hops, when not nil, holds the pool index of each hop's endpoint pair
// (−1 for a pair the pool never held), as a stitch loop already knows
// them; nil looks a junction's two pairs up in the pool when its swap
// fails.
//
// SwapOrderPath visits the junctions from source to destination;
// SwapOrderGreedy visits them in ascending swap probability (ties by path
// position), so connections doomed by an unreliable junction fail before
// reliable junctions burn rng draws and spare segments. buf, when not
// nil, holds the greedy order's junction positions across calls, so a
// caller that keeps it allocates nothing; nil uses a fresh buffer. On
// success the delivered Fidelity is recorded from the connection's
// segments — swap-order-independent by the Werner algebra's
// commutativity.
func (c *Connection) EstablishOrderedObserved(net *topo.Network, pool *Pool, hops []int, rng *rand.Rand, obs SwapObserver, order SwapOrder, buf *[]int) bool {
	established := true
	if order == SwapOrderGreedy && len(c.Nodes) > 3 {
		if buf == nil {
			buf = new([]int)
		}
		idx := (*buf)[:0]
		for i := 1; i+1 < len(c.Nodes); i++ {
			idx = append(idx, i)
		}
		*buf = idx
		slices.SortStableFunc(idx, func(a, b int) int {
			return cmp.Compare(net.SwapProb[c.Nodes[a]], net.SwapProb[c.Nodes[b]])
		})
		for _, i := range idx {
			if !c.swapAtJunction(net, pool, hops, rng, obs, i) {
				established = false
				break
			}
		}
	} else {
		for i := 1; i+1 < len(c.Nodes); i++ {
			if !c.swapAtJunction(net, pool, hops, rng, obs, i) {
				established = false
				break
			}
		}
	}
	if established {
		c.Fidelity = DefaultFidelityModel().PredictFidelity(c.Segments)
	}
	return established
}

// swapAtJunction samples the swap at junction index i of the path,
// retrying on spare segments of the junction's two incident hops while the
// pool holds a spare on each side.
func (c *Connection) swapAtJunction(net *topo.Network, pool *Pool, hops []int, rng *rand.Rand, obs SwapObserver, i int) bool {
	junction := c.Nodes[i]
	for {
		ok := xrand.Bernoulli(rng, net.SwapProb[junction])
		if obs != nil {
			obs(junction, ok)
		}
		if ok {
			return true
		}
		// Swap failed: the segments on both sides of the junction are
		// destroyed. Retry only if spares exist on both sides.
		left, right := c.hopIndex(pool, hops, i-1), c.hopIndex(pool, hops, i)
		if left < 0 || right < 0 || pool.AvailableAt(left) < 1 || pool.AvailableAt(right) < 1 {
			return false
		}
		c.Spares = append(c.Spares, pool.TakeAt(left), pool.TakeAt(right))
	}
}

// hopIndex returns the pool index of hop h's endpoint pair: hops[h], or a
// lookup when hops is nil.
func (c *Connection) hopIndex(pool *Pool, hops []int, h int) int {
	if hops != nil {
		return hops[h]
	}
	return pool.IndexOf(segment.MakePairKey(c.Nodes[h], c.Nodes[h+1]))
}
