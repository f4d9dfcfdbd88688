package ckpt

import (
	"fmt"

	"see/internal/chaos"
	"see/internal/sched"
	"see/internal/state"
	"see/internal/xrand"
)

// AppendCursor encodes an rng cursor.
func AppendCursor(e *Encoder, c xrand.Cursor) {
	e.Varint(c.Seed)
	e.Uvarint(c.Pos)
}

// ReadCursor decodes an rng cursor.
func ReadCursor(d *Decoder) xrand.Cursor {
	return xrand.Cursor{Seed: d.Varint(), Pos: d.Uvarint()}
}

// AppendTracerCounts encodes a tracer-offset snapshot.
func AppendTracerCounts(e *Encoder, c sched.TracerCounts) {
	e.Int(c.Slots)
	e.Int(c.PathsPlanned)
	e.Int(c.PathsProvisioned)
	e.Int(c.AttemptsReserved)
	e.Int(c.AttemptsResolved)
	e.Int(c.SegmentsCreated)
	e.Int(c.AttemptsFailed)
	e.Int(c.SwapsResolved)
	e.Int(c.SwapsSucceeded)
	e.Int(c.ConnectionsAssembled)
	e.Int(c.ConnectionsEstablished)
	e.Int(c.Established)
	for i := range c.Incidents {
		e.Int(c.Incidents[i])
	}
}

// ReadTracerCounts decodes a tracer-offset snapshot.
func ReadTracerCounts(d *Decoder) sched.TracerCounts {
	var c sched.TracerCounts
	c.Slots = d.Int()
	c.PathsPlanned = d.Int()
	c.PathsProvisioned = d.Int()
	c.AttemptsReserved = d.Int()
	c.AttemptsResolved = d.Int()
	c.SegmentsCreated = d.Int()
	c.AttemptsFailed = d.Int()
	c.SwapsResolved = d.Int()
	c.SwapsSucceeded = d.Int()
	c.ConnectionsAssembled = d.Int()
	c.ConnectionsEstablished = d.Int()
	c.Established = d.Int()
	for i := range c.Incidents {
		c.Incidents[i] = d.Int()
	}
	return c
}

// AppendEngineState encodes a sched.EngineState tree (nil-safe; every
// optional component carries a presence flag).
func AppendEngineState(e *Encoder, st *sched.EngineState) {
	e.Bool(st != nil)
	if st == nil {
		return
	}
	e.Int(int(st.Algorithm))
	e.Bool(st.Chaos != nil)
	if st.Chaos != nil {
		e.Int(st.Chaos.Slot)
		c := st.Chaos.Counts
		e.Int(c.NodeSlotsDown)
		e.Int(c.LinkSlotsDown)
		e.Int(c.RoutesBlocked)
		e.Int(c.SegmentsDecohered)
		e.Int(c.CutLinkSlotsDown)
		e.Int(c.FlapSlotsDown)
		e.Int(c.BrownoutAttemptsLost)
	}
	e.Bool(st.Bank != nil)
	if st.Bank != nil {
		b := st.Bank
		e.Int(b.Slot)
		e.Int(b.Seq)
		e.Int(b.Stats.Deposited)
		e.Int(b.Stats.Rejected)
		e.Int(b.Stats.Withdrawn)
		e.Int(b.Stats.Expired)
		e.Int(b.Stats.Decohered)
		e.Uvarint(uint64(len(b.Entries)))
		for _, be := range b.Entries {
			e.Int(be.A)
			e.Int(be.B)
			e.Ints(be.Path)
			e.Int(be.Birth)
			e.Int(be.Seq)
		}
	}
	e.Bool(st.Ladder != nil)
	if st.Ladder != nil {
		e.Int(st.Ladder.Failures)
		e.Bool(st.Ladder.PrimaryBuilt)
		e.Bool(st.Ladder.FallbackBuilt)
	}
	AppendEngineState(e, st.Inner)
}

// ReadEngineState decodes a sched.EngineState tree written by
// AppendEngineState. Errors latch on the decoder; callers check Finish (or
// Err) after decoding the enclosing section.
func ReadEngineState(d *Decoder) *sched.EngineState {
	if !d.Bool() {
		return nil
	}
	st := &sched.EngineState{Algorithm: sched.Algorithm(d.Int())}
	if d.Bool() {
		cs := &chaos.InjectorState{Slot: d.Int()}
		cs.Counts.NodeSlotsDown = d.Int()
		cs.Counts.LinkSlotsDown = d.Int()
		cs.Counts.RoutesBlocked = d.Int()
		cs.Counts.SegmentsDecohered = d.Int()
		cs.Counts.CutLinkSlotsDown = d.Int()
		cs.Counts.FlapSlotsDown = d.Int()
		cs.Counts.BrownoutAttemptsLost = d.Int()
		st.Chaos = cs
	}
	if d.Bool() {
		bs := &state.BankState{Slot: d.Int(), Seq: d.Int()}
		bs.Stats.Deposited = d.Int()
		bs.Stats.Rejected = d.Int()
		bs.Stats.Withdrawn = d.Int()
		bs.Stats.Expired = d.Int()
		bs.Stats.Decohered = d.Int()
		n := d.Uvarint()
		if n > uint64(d.Remaining()) {
			d.fail("bank entry count")
			return nil
		}
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			bs.Entries = append(bs.Entries, state.BankedSegment{
				A:     d.Int(),
				B:     d.Int(),
				Path:  d.Ints(),
				Birth: d.Int(),
				Seq:   d.Int(),
			})
		}
		st.Bank = bs
	}
	if d.Bool() {
		st.Ladder = &sched.LadderState{
			Failures:      d.Int(),
			PrimaryBuilt:  d.Bool(),
			FallbackBuilt: d.Bool(),
		}
	}
	st.Inner = ReadEngineState(d)
	return st
}

// EncodeEngineState renders an engine-state tree as a standalone section
// payload.
func EncodeEngineState(st *sched.EngineState) []byte {
	e := &Encoder{}
	AppendEngineState(e, st)
	return e.Bytes()
}

// DecodeEngineState parses a payload written by EncodeEngineState.
func DecodeEngineState(raw []byte) (*sched.EngineState, error) {
	d := NewDecoder(raw)
	st := ReadEngineState(d)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("ckpt: engine state: %w", err)
	}
	return st, nil
}
