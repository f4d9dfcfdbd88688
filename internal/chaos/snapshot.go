package chaos

import "errors"

// InjectorState is the serializable phase of an Injector: the slot clock and
// the lifetime fault tallies. The down sets, the brownout channel budgets
// and the decoherence sequence are not stored — all are recomputed (the
// first two by Restore, the last by the next BeginSlot), because
// checkpoints are taken only at slot boundaries: the consumed part of a
// brownout budget is intra-slot state that the next BeginSlot resets
// anyway, so only the tallies need to round-trip. The plan itself is
// configuration, not state: a restored run rebuilds the injector from the
// same FaultPlan (disc-cut link sets included) and then applies the saved
// phase.
type InjectorState struct {
	Slot   int    `json:"slot"`
	Counts Counts `json:"counts"`
}

// State snapshots the injector's phase. It returns nil for an inert (nil or
// zero-plan) injector, preserving the discipline that an inert injector is
// indistinguishable from no injector at all — including in checkpoints.
func (in *Injector) State() *InjectorState {
	if !in.Active() {
		return nil
	}
	return &InjectorState{Slot: in.slot, Counts: in.counts}
}

// CheckRestore reports the error Restore(st) would return, without changing
// the injector, so a caller restoring several parts can validate them all
// before committing any.
func (in *Injector) CheckRestore(st *InjectorState) error {
	if !in.Active() && st != nil {
		return errors.New("chaos: cannot restore fault state into an inert injector (fault plan mismatch)")
	}
	return nil
}

// Restore rewinds the injector to a snapshotted phase: the slot clock and
// counts are set and the down sets recomputed for that slot, without
// re-incrementing the outage counters (the original BeginSlot already
// counted them). Restore(nil) resets the injector to its pre-first-slot
// state; restoring a non-nil state into an inert injector is a
// configuration mismatch and errors.
func (in *Injector) Restore(st *InjectorState) error {
	if err := in.CheckRestore(st); err != nil || !in.Active() {
		return err
	}
	if st == nil {
		in.slot = -1
		in.counts = Counts{}
	} else {
		in.slot = st.Slot
		in.counts = st.Counts
	}
	in.decoSeq = 0
	// Rebuild the slot view — down sets and brownout budgets — without
	// re-incrementing the outage counters a past BeginSlot already counted.
	in.applyFaults(false)
	return nil
}
