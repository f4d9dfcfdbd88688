package state

import (
	"errors"
	"fmt"

	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/segment"
)

// BankedSegment is the serializable form of one banked entanglement segment.
// The segment's candidate realization is stored as its physical route: the
// candidate catalogue is rebuilt deterministically from configuration on
// restore, so the route is enough to re-link the segment to the identical
// *segment.Candidate in the fresh catalogue (pointer identity matters —
// SlotResult connections are compared structurally across kill/resume runs).
type BankedSegment struct {
	A int `json:"a"`
	B int `json:"b"`
	// Path is the candidate's physical node sequence, in its original
	// orientation; empty when the segment carries no candidate.
	Path []int `json:"path"`
	// Birth is the slot the segment was realized in.
	Birth int `json:"birth"`
	// Seq is the bank-global deposit sequence number (drives the stochastic
	// survival hash, so it must survive a restore exactly).
	Seq int `json:"seq"`
}

// BankState is the full serializable state of a Bank: the slot clock, the
// deposit sequence counter, the lifetime tallies and every banked entry.
// Policy and network are configuration, rebuilt on restore, not state.
// Snapshots are valid only at slot boundaries (between a slot's deposits
// and the next BeginSlot) — the withdrawn buffer is dead there and is
// deliberately not captured.
type BankState struct {
	Slot    int             `json:"slot"`
	Seq     int             `json:"seq"`
	Stats   Stats           `json:"stats"`
	Entries []BankedSegment `json:"entries"`
}

// CandidateResolver maps a banked segment's endpoints and physical route
// back to the candidate object of a freshly built catalogue. It returns nil
// when the catalogue has no such candidate (a topology/configuration
// mismatch). segment.Set.CandidateFor is the canonical implementation.
type CandidateResolver func(a, b int, path []int) *segment.Candidate

// State snapshots the bank. Safe on a nil receiver (returns nil, the
// "carry-over disabled" snapshot).
func (b *Bank) State() *BankState {
	if b == nil {
		return nil
	}
	st := &BankState{Slot: b.slot, Seq: b.seq, Stats: b.stats}
	for _, e := range b.entries {
		bs := BankedSegment{A: e.seg.A, B: e.seg.B, Birth: e.birth, Seq: e.seq}
		if e.seg.Cand != nil {
			bs.Path = append([]int(nil), e.seg.Cand.Path...)
		}
		st.Entries = append(st.Entries, bs)
	}
	return st
}

// Restore rewinds the bank to a snapshot, rebuilding each banked segment
// and re-linking its candidate through the resolver. Restore(nil) resets
// the bank to empty pre-first-slot state. Restoring a non-nil state into a
// nil bank is a configuration mismatch (the original run had carry-over
// enabled) and errors. Every entry is validated and the memory-conservation
// invariants re-checked before anything is committed, so a rejected
// snapshot leaves the bank untouched.
func (b *Bank) Restore(st *BankState, resolve CandidateResolver) error {
	if b == nil {
		if st == nil {
			return nil
		}
		return errors.New("state: cannot restore bank state into a nil bank (carry-over mismatch)")
	}
	if st == nil {
		st = &BankState{Slot: -1}
	}
	entries := make([]entry, 0, len(st.Entries))
	used := make([]int, len(b.used))
	for _, bs := range st.Entries {
		if bs.A < 0 || bs.B < 0 || bs.A >= b.net.NumNodes() || bs.B >= b.net.NumNodes() {
			return fmt.Errorf("state: banked segment endpoints ⟨%d,%d⟩ outside network", bs.A, bs.B)
		}
		seg := qnet.Segment{A: bs.A, B: bs.B}
		if len(bs.Path) > 0 {
			if resolve == nil {
				return errors.New("state: bank snapshot has candidate routes but no resolver")
			}
			c := resolve(bs.A, bs.B, bs.Path)
			if c == nil {
				return fmt.Errorf("state: no candidate for banked segment ⟨%d,%d⟩ route %v (catalogue mismatch)", bs.A, bs.B, graph.Path(bs.Path))
			}
			seg.Cand = c
		}
		used[bs.A]++
		used[bs.B]++
		entries = append(entries, entry{seg: seg, birth: bs.Birth, seq: bs.Seq})
	}
	if err := checkConservation(b.net, entries, used); err != nil {
		return err
	}
	b.slot = st.Slot
	b.seq = st.Seq
	b.stats = st.Stats
	b.entries = entries
	b.used = used
	return nil
}
