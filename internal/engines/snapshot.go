package engines

import (
	"errors"
	"fmt"

	"see/internal/sched"
)

// Registered reports whether an algorithm has a registered builder.
// Validation layers (experiment.Params.Validate) use it so unknown schemes
// are rejected at the configuration boundary instead of deep in a run.
func Registered(alg sched.Algorithm) bool {
	_, ok := builders[alg]
	return ok
}

// activeEngine returns the engine currently serving slots (primary wins),
// or nil before the first slot.
func (r *Resilient) activeEngine() sched.Stateful {
	if r.primary != nil {
		return r.primary
	}
	return r.fallback
}

// EngineState implements sched.Stateful: the ladder's position plus
// the active engine's state. Chaos phase and bank contents live in the
// inner state — primary and fallback share the one injector and the one
// bank, so capturing them through whichever engine is active captures them
// for both.
func (r *Resilient) EngineState() (*sched.EngineState, error) {
	st := &sched.EngineState{
		Algorithm: r.alg,
		Ladder: &sched.LadderState{
			Failures:      r.failures,
			PrimaryBuilt:  r.primary != nil,
			FallbackBuilt: r.fallback != nil,
		},
	}
	if active := r.activeEngine(); active != nil {
		inner, err := active.EngineState()
		if err != nil {
			return nil, err
		}
		st.Inner = inner
	}
	return st, nil
}

// RestoreEngineState implements sched.Stateful: it rebuilds the
// engines the snapshot says existed and restores the shared chaos/bank
// phase through the active one. The primary is rebuilt without the
// wall-clock budget — its deterministic LP construction already succeeded
// once in the original run, and a resume on a slower machine must not
// diverge into the fallback. A snapshot taken mid-ladder (primary still
// failing) restores the failure count, so the resumed run retries the
// budgeted construction exactly as the uninterrupted one would. The
// rebuilt engines replace the current ones only once the inner restore
// succeeded, so a rejected snapshot leaves the wrapper untouched.
func (r *Resilient) RestoreEngineState(st *sched.EngineState) error {
	if err := sched.CheckRestoreAlgorithm(r.alg, st); err != nil {
		return err
	}
	ld := &sched.LadderState{}
	var inner *sched.EngineState
	if st != nil {
		if st.Ladder == nil {
			return errors.New("engines: resilient snapshot is missing its ladder state")
		}
		ld, inner = st.Ladder, st.Inner
	}
	var primary, fallback sched.Stateful
	if ld.PrimaryBuilt {
		eng, err := build(nil, r.alg, r.net, r.pairs, r.cfg, r.inj)
		if err != nil {
			return fmt.Errorf("engines: rebuilding primary: %w", err)
		}
		primary = eng
		r.attachBank(eng)
	}
	if ld.FallbackBuilt {
		eng, err := build(nil, sched.Greedy, r.net, r.pairs, r.cfg, r.inj)
		if err != nil {
			return fmt.Errorf("engines: rebuilding fallback: %w", err)
		}
		fallback = eng
		r.attachBank(eng)
	}
	active := primary
	if active == nil {
		active = fallback
	}
	if active == nil {
		// Pre-first-slot snapshot: no engine ever ran, so the shared phase
		// state is pristine; reset the bank and injector explicitly.
		if err := r.bank.Restore(nil, nil); err != nil {
			return err
		}
		if err := r.inj.Restore(nil); err != nil {
			return err
		}
	} else if err := active.RestoreEngineState(inner); err != nil {
		return err
	}
	r.failures = ld.Failures
	r.lastErr = nil
	r.primary, r.fallback = primary, fallback
	return nil
}
