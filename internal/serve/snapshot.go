package serve

import (
	"fmt"

	"see/internal/ckpt"
	"see/internal/sched"
	"see/internal/xrand"
)

// Checkpoint section names. Sections are independently framed so a future
// reader can report exactly which part of a checkpoint it cannot parse.
const (
	secMeta   = "meta"   // fingerprint + slot index
	secRNG    = "rng"    // xrand cursor
	secServe  = "serve"  // queues, counters, arrival phase
	secEngine = "engine" // sched.EngineState tree
	secTracer = "tracer" // CountingTracer offsets (optional)
)

// Snapshot captures the full server state at the current slot boundary:
// request queues, lifecycle counters, arrival-process phase, the rng
// cursor, the engine's state tree and (when configured) the tracer's
// incident offsets. The engine must implement sched.Checkpointable.
func (s *Server) Snapshot() (*ckpt.Snapshot, error) {
	ck, ok := s.eng.(sched.Checkpointable)
	if !ok {
		return nil, fmt.Errorf("serve: engine %v does not support checkpointing", s.eng.Algorithm())
	}
	engState, err := ck.EngineState()
	if err != nil {
		return nil, fmt.Errorf("serve: engine snapshot: %w", err)
	}

	snap := &ckpt.Snapshot{}

	meta := &ckpt.Encoder{}
	meta.String(s.Fingerprint())
	meta.Int(s.slot)
	snap.Add(secMeta, meta.Bytes())

	rng := &ckpt.Encoder{}
	ckpt.AppendCursor(rng, s.stream.Cursor())
	snap.Add(secRNG, rng.Bytes())

	e := &ckpt.Encoder{}
	e.Int(s.nextID)
	e.Int(s.cfg.Process.Phase())
	e.Int(s.established)
	e.Int(s.floorRejected)
	e.Uvarint(uint64(s.pairs))
	for _, q := range s.queues {
		e.Uvarint(uint64(len(q)))
		for _, r := range q {
			e.Int(r.ID)
			e.Int(r.User)
			e.Int(int(r.Class))
			e.Int(r.Arrived)
			e.Int(r.Deadline)
		}
	}
	for c := range s.class {
		cc := s.class[c]
		e.Int(cc.Arrived)
		e.Int(cc.Admitted)
		e.Int(cc.Rejected)
		e.Int(cc.Expired)
		e.Int(cc.Served)
		e.Float64(cc.LatencySum)
	}
	e.Ints(s.userArrived)
	e.Ints(s.userServed)
	snap.Add(secServe, e.Bytes())

	snap.Add(secEngine, ckpt.EncodeEngineState(engState))

	if s.cfg.Tracer != nil {
		t := &ckpt.Encoder{}
		ckpt.AppendTracerCounts(t, s.cfg.Tracer.Counts())
		snap.Add(secTracer, t.Bytes())
	}

	return snap, nil
}

// Restore rebuilds the server from a checkpoint taken by Snapshot on an
// identically configured server (same topology, algorithm, arrival config
// and seed — enforced via the fingerprint). After Restore the server
// produces byte-identical SlotStats to the uninterrupted original.
func (s *Server) Restore(snap *ckpt.Snapshot) error {
	ck, ok := s.eng.(sched.Checkpointable)
	if !ok {
		return fmt.Errorf("serve: engine %v does not support checkpointing", s.eng.Algorithm())
	}

	metaRaw, ok := snap.Section(secMeta)
	if !ok {
		return fmt.Errorf("serve: checkpoint has no %q section", secMeta)
	}
	md := ckpt.NewDecoder(metaRaw)
	fp := md.String()
	slot := md.Int()
	if err := md.Finish(); err != nil {
		return fmt.Errorf("serve: meta section: %w", err)
	}
	if want := s.Fingerprint(); fp != want {
		return fmt.Errorf("serve: checkpoint fingerprint mismatch:\n  checkpoint: %s\n  server:     %s", fp, want)
	}

	rngRaw, ok := snap.Section(secRNG)
	if !ok {
		return fmt.Errorf("serve: checkpoint has no %q section", secRNG)
	}
	rd := ckpt.NewDecoder(rngRaw)
	cursor := ckpt.ReadCursor(rd)
	if err := rd.Finish(); err != nil {
		return fmt.Errorf("serve: rng section: %w", err)
	}

	raw, ok := snap.Section(secServe)
	if !ok {
		return fmt.Errorf("serve: checkpoint has no %q section", secServe)
	}
	d := ckpt.NewDecoder(raw)
	nextID := d.Int()
	phase := d.Int()
	established := d.Int()
	floorRejected := d.Int()
	pairs := d.Uvarint()
	if d.Err() == nil && pairs != uint64(s.pairs) {
		return fmt.Errorf("serve: checkpoint has %d SD pairs, server has %d", pairs, s.pairs)
	}
	queues := make([][]Request, s.pairs)
	for i := 0; i < s.pairs && d.Err() == nil; i++ {
		n := d.Uvarint()
		if n > uint64(d.Remaining()) {
			return fmt.Errorf("serve: queue %d claims %d requests with %d bytes left", i, n, d.Remaining())
		}
		for k := uint64(0); k < n && d.Err() == nil; k++ {
			r := Request{
				ID:      d.Int(),
				User:    d.Int(),
				Class:   Class(d.Int()),
				Arrived: d.Int(),
				Pair:    i,
			}
			r.Deadline = d.Int()
			if d.Err() == nil && (r.Class < 0 || r.Class >= NumClasses) {
				return fmt.Errorf("serve: queued request %d has class %d", r.ID, r.Class)
			}
			if d.Err() == nil && (r.User < 0 || r.User >= s.cfg.Users) {
				return fmt.Errorf("serve: queued request %d has user %d, server has %d users", r.ID, r.User, s.cfg.Users)
			}
			queues[i] = append(queues[i], r)
		}
	}
	var class [NumClasses]ClassCounts
	for c := range class {
		class[c] = ClassCounts{
			Arrived:    d.Int(),
			Admitted:   d.Int(),
			Rejected:   d.Int(),
			Expired:    d.Int(),
			Served:     d.Int(),
			LatencySum: d.Float64(),
		}
	}
	userArrived := d.Ints()
	userServed := d.Ints()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("serve: serve section: %w", err)
	}
	if len(userArrived) != s.cfg.Users || len(userServed) != s.cfg.Users {
		return fmt.Errorf("serve: checkpoint tracks %d/%d users, server has %d",
			len(userArrived), len(userServed), s.cfg.Users)
	}

	engRaw, ok := snap.Section(secEngine)
	if !ok {
		return fmt.Errorf("serve: checkpoint has no %q section", secEngine)
	}
	engState, err := ckpt.DecodeEngineState(engRaw)
	if err != nil {
		return err
	}

	tracerRaw, hasTracer := snap.Section(secTracer)
	if hasTracer != (s.cfg.Tracer != nil) {
		return fmt.Errorf("serve: checkpoint tracer presence (%v) does not match server (%v)",
			hasTracer, s.cfg.Tracer != nil)
	}
	var tracerCounts sched.TracerCounts
	if hasTracer {
		td := ckpt.NewDecoder(tracerRaw)
		tracerCounts = ckpt.ReadTracerCounts(td)
		if err := td.Finish(); err != nil {
			return fmt.Errorf("serve: tracer section: %w", err)
		}
	}

	// All sections parsed and validated — apply. The arrival phase goes
	// first, before anything touches the engine: the process validates it
	// and is reverted if the engine restore (the only other step that can
	// fail, and which validates before it commits) rejects its state.
	oldPhase := s.cfg.Process.Phase()
	if err := s.cfg.Process.SetPhase(phase); err != nil {
		return err
	}
	if err := ck.RestoreEngineState(engState); err != nil {
		_ = s.cfg.Process.SetPhase(oldPhase) // read from Phase, so valid
		return fmt.Errorf("serve: engine restore: %w", err)
	}
	s.slot = slot
	s.nextID = nextID
	s.established = established
	s.floorRejected = floorRejected
	s.queues = queues
	s.class = class
	s.userArrived = userArrived
	s.userServed = userServed
	s.stream = xrand.Restore(cursor)
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.RestoreCounts(tracerCounts)
	}
	return nil
}

// WriteCheckpoint snapshots the server and atomically writes the binary
// checkpoint to path plus a human-readable JSON dump to path+".json". The
// dump is diagnostic only; Restore never reads it.
func (s *Server) WriteCheckpoint(path string) error {
	snap, err := s.Snapshot()
	if err != nil {
		return err
	}
	if err := ckpt.Write(path, snap); err != nil {
		return err
	}
	return ckpt.WriteDebugJSON(path+".json", s.debugState())
}

// ResumeFrom loads the checkpoint file at path and restores the server
// from it.
func (s *Server) ResumeFrom(path string) error {
	snap, err := ckpt.Read(path)
	if err != nil {
		return err
	}
	return s.Restore(snap)
}

// debugState is the JSON debug-dump view of a checkpoint.
func (s *Server) debugState() any {
	type classView struct {
		Class    string  `json:"class"`
		Arrived  int     `json:"arrived"`
		Admitted int     `json:"admitted"`
		Rejected int     `json:"rejected"`
		Expired  int     `json:"expired"`
		Served   int     `json:"served"`
		Latency  float64 `json:"latency_sum"`
	}
	classes := make([]classView, NumClasses)
	for c := range s.class {
		cc := s.class[c]
		classes[c] = classView{
			Class:    Class(c).String(),
			Arrived:  cc.Arrived,
			Admitted: cc.Admitted,
			Rejected: cc.Rejected,
			Expired:  cc.Expired,
			Served:   cc.Served,
			Latency:  cc.LatencySum,
		}
	}
	queued := 0
	for i := range s.queues {
		queued += len(s.queues[i])
	}
	return map[string]any{
		"fingerprint":    s.Fingerprint(),
		"slot":           s.slot,
		"next_id":        s.nextID,
		"rng":            s.stream.Cursor(),
		"established":    s.established,
		"floor_rejected": s.floorRejected,
		"backlog":        queued,
		"arrival_kind":   s.cfg.Process.String(),
		"phase":          s.cfg.Process.Phase(),
		"classes":        classes,
	}
}
