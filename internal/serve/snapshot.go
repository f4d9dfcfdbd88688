package serve

import (
	"fmt"

	"see/internal/ckpt"
	"see/internal/sched"
	"see/internal/xrand"
)

// checkpoint is the full server state at a slot boundary, encoded as one
// ckpt file: request queues, lifecycle counters, arrival-process phase, the
// rng cursor, the engine's state tree and (when configured) the tracer's
// offsets.
type checkpoint struct {
	Fingerprint   string              `json:"fingerprint"`
	Slot          int                 `json:"slot"`
	RNG           xrand.Cursor        `json:"rng"`
	NextID        int                 `json:"next_id"`
	Phase         int                 `json:"phase"`
	Established   int                 `json:"established"`
	FloorRejected int                 `json:"floor_rejected"`
	Queues        [][]Request         `json:"queues"`
	Classes       []ClassCounts       `json:"classes"`
	UserArrived   []int               `json:"user_arrived"`
	UserServed    []int               `json:"user_served"`
	Engine        *sched.EngineState  `json:"engine"`
	Tracer        *sched.TracerCounts `json:"tracer,omitempty"`
}

// snapshot captures the server state. The engine must implement
// sched.Stateful: New takes a plain sched.Engine, so a delegating wrapper
// that hides the capability serves slots but cannot checkpoint. The
// result shares the server's queues and counters, so encode it before the
// server runs on.
func (s *Server) snapshot() (*checkpoint, error) {
	ck, ok := s.eng.(sched.Stateful)
	if !ok {
		return nil, fmt.Errorf("serve: engine %v does not support checkpointing", s.eng.Algorithm())
	}
	engState, err := ck.EngineState()
	if err != nil {
		return nil, fmt.Errorf("serve: engine snapshot: %w", err)
	}
	c := &checkpoint{
		Fingerprint:   s.Fingerprint(),
		Slot:          s.slot,
		RNG:           s.stream.Cursor(),
		NextID:        s.nextID,
		Phase:         s.cfg.Process.Phase(),
		Established:   s.established,
		FloorRejected: s.floorRejected,
		Queues:        s.queues,
		Classes:       s.class[:],
		UserArrived:   s.userArrived,
		UserServed:    s.userServed,
		Engine:        engState,
	}
	if s.cfg.Tracer != nil {
		counts := s.cfg.Tracer.Counts()
		c.Tracer = &counts
	}
	return c, nil
}

// maxDrawsPerSlot bounds the rng draws a checkpoint may claim per slot it
// has served: restore rejects a cursor at or beyond (slot+1) ×
// maxDrawsPerSlot with a *CursorError instead of replaying it. A slot
// draws once per arrival plus the engine's physical sampling; the densest
// measured server (seesim -serve, 400 nodes, 50 pairs, rate 500, REPS)
// drew about 2,600 per slot, so the ceiling leaves a 400× margin. With
// the slot itself bounded by the run's horizon, a restore's replay costs
// at most about 2 ms per slot the run covers.
const maxDrawsPerSlot = 1 << 20

// CursorError reports a checkpoint whose rng position is beyond what its
// slot count can have drawn (maxDrawsPerSlot): a damaged or forged
// cursor, whose replay could otherwise run for hours.
type CursorError struct {
	Slot int
	Pos  uint64
}

func (e *CursorError) Error() string {
	return fmt.Sprintf("serve: checkpoint rng position %d is beyond %d draws per slot over its %d slots", e.Pos, maxDrawsPerSlot, e.Slot)
}

// restore rebuilds the server from a checkpoint taken by snapshot on an
// identically configured server (same topology, algorithm, arrival config
// and seed — enforced via the fingerprint). It validates everything before
// it changes anything, so a rejected checkpoint leaves the server as it
// was. A checkpoint beyond slot horizon, the last slot of the run that
// resumes it, is rejected, and so is an rng cursor beyond maxDrawsPerSlot
// per slot: both checks run before the cursor is replayed, so the replay
// takes at most about 2 ms per slot of the horizon. After restore the
// server produces byte-identical SlotStats to the uninterrupted original.
func (s *Server) restore(c *checkpoint, horizon int) error {
	ck, ok := s.eng.(sched.Stateful)
	if !ok {
		return fmt.Errorf("serve: engine %v does not support checkpointing", s.eng.Algorithm())
	}
	if want := s.Fingerprint(); c.Fingerprint != want {
		return fmt.Errorf("serve: checkpoint fingerprint mismatch:\n  checkpoint: %s\n  server:     %s", c.Fingerprint, want)
	}
	if c.Slot < 0 || c.NextID < 0 {
		return fmt.Errorf("serve: checkpoint at slot %d with next request ID %d", c.Slot, c.NextID)
	}
	if c.Slot > horizon {
		return fmt.Errorf("serve: checkpoint is at slot %d, beyond the run's %d slots", c.Slot, horizon)
	}
	if c.RNG.Seed != s.cfg.Seed {
		return fmt.Errorf("serve: checkpoint rng seed %d, server seed %d", c.RNG.Seed, s.cfg.Seed)
	}
	if c.RNG.Pos/maxDrawsPerSlot > uint64(c.Slot) {
		return &CursorError{Slot: c.Slot, Pos: c.RNG.Pos}
	}
	if c.Engine == nil {
		return fmt.Errorf("serve: checkpoint has no engine state")
	}
	if len(c.Queues) != s.pairs {
		return fmt.Errorf("serve: checkpoint has %d SD pairs, server has %d", len(c.Queues), s.pairs)
	}
	for i, q := range c.Queues {
		for _, r := range q {
			switch {
			case r.Pair != i:
				return fmt.Errorf("serve: request %d queued at pair %d is for pair %d", r.ID, i, r.Pair)
			case r.ID < 0 || r.ID >= c.NextID:
				return fmt.Errorf("serve: queued request ID %d outside [0,%d)", r.ID, c.NextID)
			case r.Arrived < 0 || r.Arrived >= c.Slot:
				return fmt.Errorf("serve: queued request %d arrived at slot %d, checkpoint is at slot %d", r.ID, r.Arrived, c.Slot)
			case r.Class < 0 || r.Class >= NumClasses:
				return fmt.Errorf("serve: queued request %d has class %d", r.ID, r.Class)
			case r.User < 0 || r.User >= s.cfg.Users:
				return fmt.Errorf("serve: queued request %d has user %d, server has %d users", r.ID, r.User, s.cfg.Users)
			}
		}
	}
	if len(c.Classes) != NumClasses {
		return fmt.Errorf("serve: checkpoint has %d classes, server has %d", len(c.Classes), NumClasses)
	}
	if len(c.UserArrived) != s.cfg.Users || len(c.UserServed) != s.cfg.Users {
		return fmt.Errorf("serve: checkpoint tracks %d/%d users, server has %d",
			len(c.UserArrived), len(c.UserServed), s.cfg.Users)
	}
	if (c.Tracer != nil) != (s.cfg.Tracer != nil) {
		return fmt.Errorf("serve: checkpoint tracer presence (%v) does not match server (%v)",
			c.Tracer != nil, s.cfg.Tracer != nil)
	}

	// All validated — apply. The arrival phase goes first, before anything
	// touches the engine: the process validates it and is reverted if the
	// engine restore (the only other step that can fail, and which
	// validates before it commits) rejects its state.
	oldPhase := s.cfg.Process.Phase()
	if err := s.cfg.Process.SetPhase(c.Phase); err != nil {
		return err
	}
	if err := ck.RestoreEngineState(c.Engine); err != nil {
		_ = s.cfg.Process.SetPhase(oldPhase) // read from Phase, so valid
		return fmt.Errorf("serve: engine restore: %w", err)
	}
	s.slot = c.Slot
	s.nextID = c.NextID
	s.established = c.Established
	s.floorRejected = c.FloorRejected
	s.queues = c.Queues
	clear(s.nextExpiry)
	copy(s.class[:], c.Classes)
	s.userArrived = c.UserArrived
	s.userServed = c.UserServed
	s.stream = xrand.Restore(c.RNG)
	if c.Tracer != nil {
		s.cfg.Tracer.RestoreCounts(*c.Tracer)
	}
	return nil
}

// WriteCheckpoint snapshots the server and atomically writes it to path as
// a ckpt file; its JSON body doubles as the human-readable state dump.
func (s *Server) WriteCheckpoint(path string) error {
	c, err := s.snapshot()
	if err != nil {
		return err
	}
	return ckpt.Write(path, c)
}

// ResumeFrom loads the checkpoint file at path and restores the server
// from it, for a run that ends at slot horizon: a checkpoint beyond the
// horizon is an error, raised before its rng cursor is replayed.
func (s *Server) ResumeFrom(path string, horizon int) error {
	var c checkpoint
	if err := ckpt.Read(path, &c); err != nil {
		return err
	}
	return s.restore(&c, horizon)
}
