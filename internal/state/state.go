// Package state is the cross-slot entanglement-state subsystem: a Bank of
// realized-but-unconsumed entanglement segments that survive the slot
// boundary instead of being discarded when the slot ends.
//
// The paper's engines are memoryless across slots — every slot re-rounds
// from the cached LP and throws away realized segments that no connection
// consumed, even though the photons are still sitting in quantum memory.
// The Bank models that idle inter-slot storage:
//
//	realized ──deposit──► banked ──withdraw──► carried into the next slot
//	                         │
//	                         └──decohere──► lost (age window or hashed
//	                                        per-boundary survival draw)
//
// Lifecycle and accounting rules (see DESIGN.md §6 for the full state
// model):
//
//   - Deposit accepts a segment only while both endpoints have free banked
//     memory: the number of banked photons at node u never exceeds the
//     node's memory size m_u. Rejected segments are discarded (photons
//     released), never silently over-committed.
//   - BeginSlot advances the bank's slot clock. A banked segment survives
//     at most Policy.CarrySlots slot boundaries (its age window); past
//     that, its memory decoheres deterministically. While inside the
//     window it additionally survives each boundary with probability
//     1−Policy.Decoherence, decided by the same seeded hash scheme as
//     internal/chaos — never by an engine's rng — so carried runs stay
//     reproducible from (engine seed, fault plan, policy) alone.
//   - WithdrawAll hands every surviving segment to the engine for the new
//     slot and releases the banked memory. Withdrawn segments the slot
//     does not consume may be re-deposited; they keep their original
//     creation slot (stamped on the withdrawn segment,
//     qnet.Segment.BankBirth), so the age window measures true segment
//     age and a segment can never ride the bank forever.
//
// The bank owns its segments by value: Deposit copies each one into bank
// storage, so nothing it holds points into an engine's slot-scoped
// segment arena, and WithdrawAll returns pointers into a second bank
// buffer that no deposit writes until the next withdrawal.
//
// Engines expose the capability through sched.Stateful and gate every
// bank interaction on the bank being attached: a nil bank (carry-over
// disabled) leaves each engine byte-identical to the memoryless code
// path, the same discipline internal/chaos applies to zero fault plans.
package state

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"see/internal/chaos"
	"see/internal/qnet"
	"see/internal/segment"
	"see/internal/topo"
)

// hashKindBank namespaces the bank's decoherence hash stream away from the
// chaos injector's stream (0xdec0 segment decoherence).
const hashKindBank = 0xca44

// Policy tunes cross-slot carry-over.
type Policy struct {
	// CarrySlots is the decoherence window: the number of slot boundaries
	// a banked segment survives before its quantum memory decoheres
	// deterministically. 1 means a segment realized in slot t is usable
	// in slot t+1 but never t+2. Values <= 0 select the default window
	// of 1.
	CarrySlots int
	// Decoherence is the per-boundary stochastic hazard: inside the age
	// window, each banked segment is additionally lost at every slot
	// boundary with this probability. It is wired to the chaos fault
	// plan's decoherence knob — a zero (or absent) plan means zero, so
	// bank survival is then a pure function of the age window.
	Decoherence float64
	// Seed drives the stochastic survival hash stream (the fault plan's
	// seed when carry-over runs under a fault plan).
	Seed int64
	// WernerRetention, when in (0,1), is the per-boundary age decay of a
	// banked segment's Werner parameter: a segment withdrawn n slot
	// boundaries after its creation carries Werner scale retention^n
	// (qnet.Segment.WernerScale), so carried segments arrive degraded.
	// 0 (or >= 1) disables decay — withdrawn segments stay pristine and
	// the fidelity pipeline is byte-identical to the pre-decay behavior.
	WernerRetention float64
	// MinWernerScale is the substitution threshold of the bank's TrimPlan:
	// a withdrawn segment whose decayed Werner scale fell below it no
	// longer substitutes for planned creation attempts (the engine re-plans
	// fresh attempts instead of leaning on a degraded photon). 0 keeps
	// every withdrawn segment substituting, as before.
	MinWernerScale float64
}

func (p Policy) window() int {
	if p.CarrySlots <= 0 {
		return 1
	}
	return p.CarrySlots
}

// Stats tallies a bank's lifetime activity.
type Stats struct {
	// Deposited counts segments accepted into the bank.
	Deposited int
	// Rejected counts deposit candidates refused for lack of banked
	// memory at an endpoint.
	Rejected int
	// Withdrawn counts segments handed back to an engine at slot start.
	Withdrawn int
	// Expired counts banked segments lost to the age window.
	Expired int
	// Decohered counts banked segments lost to the stochastic
	// per-boundary hazard.
	Decohered int
}

// Lost sums the decoherence losses (age window + stochastic hazard).
func (s Stats) Lost() int { return s.Expired + s.Decohered }

// entry is one banked segment, held by value, with its provenance.
type entry struct {
	seg qnet.Segment
	// birth is the slot the segment was realized in (preserved across
	// re-deposits of a withdrawn-but-unconsumed segment).
	birth int
	// seq is the bank-global deposit sequence number driving the
	// stochastic survival hash.
	seq int
}

// Bank holds realized-but-unconsumed entanglement segments between slots,
// with per-entry age and memory-unit accounting against each node's m_u.
// It is not safe for concurrent use; attach one bank per engine (the same
// ownership rule as chaos.Injector). All read-only methods are safe on a
// nil receiver, which behaves as "carry-over disabled".
type Bank struct {
	net    *topo.Network
	policy Policy

	slot    int
	seq     int
	entries []entry
	// withdrawn holds the segments of the last WithdrawAll, which handed
	// out pointers into it (out). It swaps buffers with entries at each
	// withdrawal, so deposits never overwrite a segment withdrawn in the
	// same slot.
	withdrawn []entry
	out       []*qnet.Segment
	// used is the banked memory units per node; invariant used[u] <= m_u.
	used []int
	// trim is TrimPlan's reused storage.
	trim trimScratch

	stats Stats
}

// NewBank builds an empty bank over the network's memory resources.
func NewBank(net *topo.Network, policy Policy) *Bank {
	return &Bank{
		net:    net,
		policy: policy,
		slot:   -1,
		used:   make([]int, net.NumNodes()),
	}
}

// Policy returns the bank's carry-over policy (with the window default
// resolved).
func (b *Bank) Policy() Policy {
	p := b.policy
	p.CarrySlots = p.window()
	return p
}

// Slot returns the current slot index (-1 before the first BeginSlot).
func (b *Bank) Slot() int {
	if b == nil {
		return -1
	}
	return b.slot
}

// Size returns the number of banked segments.
func (b *Bank) Size() int {
	if b == nil {
		return 0
	}
	return len(b.entries)
}

// MemoryUsed returns the banked memory units at node u.
func (b *Bank) MemoryUsed(u int) int {
	if b == nil {
		return 0
	}
	return b.used[u]
}

// Stats returns the lifetime tallies.
func (b *Bank) Stats() Stats {
	if b == nil {
		return Stats{}
	}
	return b.stats
}

// BeginSlot advances the slot clock and applies decoherence to the banked
// entries: segments older than the age window expire deterministically,
// and the survivors face the stochastic per-boundary hazard (hashed from
// (seed, slot, seq), never from an engine rng). It returns the number of
// segments lost at this boundary, split by cause. Engines call it at the
// top of RunSlot, before withdrawing.
func (b *Bank) BeginSlot() (expired, decohered int) {
	b.slot++
	if len(b.entries) == 0 {
		return 0, 0
	}
	window := b.policy.window()
	kept := b.entries[:0]
	for _, e := range b.entries {
		switch {
		case b.slot-e.birth > window:
			expired++
			b.release(&e.seg)
		case b.policy.Decoherence > 0 &&
			chaos.Hash01(b.policy.Seed, hashKindBank, b.slot, e.seq) < b.policy.Decoherence:
			decohered++
			b.release(&e.seg)
		default:
			kept = append(kept, e)
		}
	}
	b.entries = kept
	b.stats.Expired += expired
	b.stats.Decohered += decohered
	return expired, decohered
}

// WithdrawAll removes every banked segment and returns them, oldest first
// (by creation slot, deposit sequence breaking ties — a re-deposited old
// segment outranks younger ones even though it re-entered the bank later),
// releasing their banked memory. The engine adds them to the slot's
// realized pool (and may shrink its attempt plan with TrimPlan); whatever
// the slot leaves unconsumed can be re-deposited with its age preserved.
// The segments are the bank's own and stay valid until the next
// WithdrawAll; the slice is the bank's too, valid as long.
func (b *Bank) WithdrawAll() []*qnet.Segment {
	if len(b.entries) == 0 {
		return nil
	}
	slices.SortStableFunc(b.entries, func(x, y entry) int {
		if c := cmp.Compare(x.birth, y.birth); c != 0 {
			return c
		}
		return cmp.Compare(x.seq, y.seq)
	})
	out := b.out[:0]
	decay := b.policy.WernerRetention > 0 && b.policy.WernerRetention < 1
	for i := range b.entries {
		e := &b.entries[i]
		if decay {
			// Recomputed from total age at every withdrawal (never
			// compounded on the stored scale), so a withdraw/re-deposit
			// cycle cannot double-apply a boundary.
			if age := b.slot - e.birth; age > 0 {
				e.seg.SetWernerScale(math.Pow(b.policy.WernerRetention, float64(age)))
			}
		}
		e.seg.SetBankBirth(e.birth)
		b.release(&e.seg)
		out = append(out, &e.seg)
	}
	// The withdrawn segments stay put; deposits go to the other buffer.
	b.entries, b.withdrawn = b.withdrawn[:0], b.entries
	b.out = out
	b.stats.Withdrawn += len(out)
	return out
}

// Deposit banks copies of the given segments, in order, while both
// endpoints of each have free banked memory; segments that do not fit are
// rejected (their photons are released, not stored). Consumed segments are
// skipped. A segment this bank withdrew keeps its stamped creation slot;
// any other is born in the current slot. It returns the number accepted.
// Callers pass segments in a deterministic order (qnet.Pool.AppendUnconsumed)
// so the acceptance set is reproducible. The bank keeps no pointer to the
// segments passed.
func (b *Bank) Deposit(segs []*qnet.Segment) int {
	accepted := 0
	for _, s := range segs {
		if s.Consumed() {
			continue
		}
		if b.used[s.A] >= b.net.Memory[s.A] || b.used[s.B] >= b.net.Memory[s.B] {
			b.stats.Rejected++
			continue
		}
		birth := b.slot
		if orig, ok := s.BankBirth(); ok {
			birth = orig
		}
		b.used[s.A]++
		b.used[s.B]++
		b.entries = append(b.entries, entry{seg: *s, birth: birth, seq: b.seq})
		b.seq++
		accepted++
	}
	b.stats.Deposited += accepted
	return accepted
}

// release frees the banked memory units of a segment leaving the bank.
func (b *Bank) release(s *qnet.Segment) {
	b.used[s.A]--
	b.used[s.B]--
}

// CheckConservation verifies the memory-accounting invariants: the per-node
// usage counters match the banked entries exactly and never exceed the
// node's memory size m_u. Tests call it after every slot of long
// fault-injected workloads.
func (b *Bank) CheckConservation() error {
	if b == nil {
		return nil
	}
	return checkConservation(b.net, b.entries, b.used)
}

// checkConservation is CheckConservation over explicit entries and usage
// counters, so Restore can check a rebuild before committing it.
func checkConservation(net *topo.Network, entries []entry, used []int) error {
	recount := make([]int, net.NumNodes())
	for _, e := range entries {
		recount[e.seg.A]++
		recount[e.seg.B]++
	}
	for u, n := range recount {
		if n != used[u] {
			return fmt.Errorf("state: node %d usage counter %d, entries say %d", u, used[u], n)
		}
		if n > net.Memory[u] {
			return fmt.Errorf("state: node %d banks %d units, memory size is %d", u, n, net.Memory[u])
		}
	}
	for u, n := range used {
		if recount[u] != n {
			return fmt.Errorf("state: node %d usage counter %d, entries say %d", u, n, recount[u])
		}
	}
	return nil
}

// TrimPlan reduces a slot's attempt plan by the withdrawn carried segments:
// each carried segment on endpoint pair ⟨u,v⟩ substitutes for one planned
// creation attempt on that pair (a certain segment strictly dominates a
// Bernoulli(p) attempt), so the reserve phase demands fewer channels and
// memory units. Candidates are trimmed in plan order. Withdrawn segments
// whose decayed Werner scale (qnet.Segment.WernerScale) is below
// Policy.MinWernerScale do not substitute: a photon that degraded past the
// threshold is worth less than a fresh attempt once delivered fidelity
// matters. A nil bank (carry-over disabled) or a zero threshold keeps
// every withdrawn segment substituting. The input plan is never mutated —
// engines cache their plans across slots — and is returned unchanged
// (same slice) when nothing trims; the second result is the number of
// attempts removed. A trimmed plan is the bank's own storage, valid until
// the next TrimPlan.
func (b *Bank) TrimPlan(plan qnet.AttemptPlan, withdrawn []*qnet.Segment) (qnet.AttemptPlan, int) {
	if b == nil {
		var sc trimScratch
		return sc.trimPlan(plan, withdrawn, 0)
	}
	return b.trim.trimPlan(plan, withdrawn, b.policy.MinWernerScale)
}

// trimScratch is TrimPlan's reused storage: the substituting endpoint
// pairs with their remaining counts, sorted by pair, and the trimmed plan.
type trimScratch struct {
	subst []pairCount
	out   qnet.AttemptPlan
}

// pairCount is one endpoint pair and a count of its segments.
type pairCount struct {
	pair segment.PairKey
	n    int
}

// comparePairs orders endpoint pairs by U, then V.
func comparePairs(a, b segment.PairKey) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// trimPlan is TrimPlan with the substitution threshold minScale (<= 0
// keeps every withdrawn segment substituting). It counts the substitutes
// per pair in a sorted list, so each plan entry finds its pair by binary
// search: exact for any candidate and segment, nothing hashed.
func (sc *trimScratch) trimPlan(plan qnet.AttemptPlan, withdrawn []*qnet.Segment, minScale float64) (qnet.AttemptPlan, int) {
	if len(withdrawn) == 0 || len(plan) == 0 {
		return plan, 0
	}
	subst := sc.subst[:0]
	for _, s := range withdrawn {
		if minScale > 0 && s.WernerScale() < minScale {
			continue
		}
		subst = append(subst, pairCount{pair: s.Pair(), n: 1})
	}
	slices.SortFunc(subst, func(a, b pairCount) int { return comparePairs(a.pair, b.pair) })
	// Merge each pair's run into one count.
	k := 0
	for _, c := range subst {
		if k > 0 && subst[k-1].pair == c.pair {
			subst[k-1].n++
			continue
		}
		subst[k] = c
		k++
	}
	subst = subst[:k]
	sc.subst = subst
	var out qnet.AttemptPlan
	trimmed := 0
	for i, e := range plan {
		j, found := slices.BinarySearchFunc(subst, segment.MakePairKey(e.Cand.U(), e.Cand.V()),
			func(c pairCount, pk segment.PairKey) int { return comparePairs(c.pair, pk) })
		if !found || subst[j].n == 0 {
			continue
		}
		cut := min(subst[j].n, e.N)
		if cut == 0 {
			continue
		}
		if out == nil {
			out = append(sc.out[:0], plan...)
		}
		out[i].N -= cut
		subst[j].n -= cut
		trimmed += cut
	}
	if out == nil {
		return plan, 0
	}
	out = slices.DeleteFunc(out, func(e qnet.PlanEntry) bool { return e.N == 0 })
	sc.out = out
	return out, trimmed
}
