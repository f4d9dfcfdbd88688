package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"see/internal/chaos"
	"see/internal/sched"
	"see/internal/state"
	"see/internal/xrand"
)

// TestCodecRoundTrip drives every primitive through an encode/decode cycle.
func TestCodecRoundTrip(t *testing.T) {
	e := &Encoder{}
	e.Uvarint(0)
	e.Uvarint(1<<63 + 17)
	e.Varint(-1234567891011)
	e.Int(42)
	e.Bool(true)
	e.Bool(false)
	e.Float64(math.Pi)
	e.Float64(math.Inf(-1))
	e.String("hello, 世界")
	e.String("")
	e.Blob([]byte{0, 1, 2, 255})
	e.Ints([]int{-3, 0, 7})
	e.Ints(nil)

	d := NewDecoder(e.Bytes())
	if got := d.Uvarint(); got != 0 {
		t.Errorf("uvarint 0: got %d", got)
	}
	if got := d.Uvarint(); got != 1<<63+17 {
		t.Errorf("uvarint big: got %d", got)
	}
	if got := d.Varint(); got != -1234567891011 {
		t.Errorf("varint: got %d", got)
	}
	if got := d.Int(); got != 42 {
		t.Errorf("int: got %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("bools did not round trip")
	}
	if got := d.Float64(); got != math.Pi {
		t.Errorf("float64: got %v", got)
	}
	if got := d.Float64(); !math.IsInf(got, -1) {
		t.Errorf("float64 -inf: got %v", got)
	}
	if got := d.String(); got != "hello, 世界" {
		t.Errorf("string: got %q", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("empty string: got %q", got)
	}
	if got := d.Blob(); !reflect.DeepEqual(got, []byte{0, 1, 2, 255}) {
		t.Errorf("blob: got %v", got)
	}
	if got := d.Ints(); !reflect.DeepEqual(got, []int{-3, 0, 7}) {
		t.Errorf("ints: got %v", got)
	}
	if got := d.Ints(); got != nil {
		t.Errorf("nil ints: got %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderLatchesErrors checks truncated input fails once and stays
// failed.
func TestDecoderLatchesErrors(t *testing.T) {
	d := NewDecoder([]byte{0x80}) // unterminated varint
	d.Uvarint()
	if d.Err() == nil {
		t.Fatal("truncated uvarint accepted")
	}
	if got := d.Int(); got != 0 {
		t.Errorf("post-error read returned %d", got)
	}
	if d.Finish() == nil {
		t.Error("Finish cleared the latched error")
	}
}

// TestContainerRoundTrip writes and reloads a multi-section snapshot.
func TestContainerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	s := &Snapshot{}
	s.Add("alpha", []byte("payload-a"))
	s.Add("beta", nil)
	s.Add("gamma", []byte{1, 2, 3})
	if err := Write(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Names(), []string{"alpha", "beta", "gamma"}) {
		t.Fatalf("sections: %v", got.Names())
	}
	if data, ok := got.Section("alpha"); !ok || string(data) != "payload-a" {
		t.Fatalf("alpha = %q, %v", data, ok)
	}
	if _, ok := got.Section("missing"); ok {
		t.Fatal("found a section that was never written")
	}
	// No stray temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after an atomic write", len(entries))
	}
}

// TestContainerRejectsCorruption flips bytes across the file and asserts
// every corruption is caught (magic, body, trailer).
func TestContainerRejectsCorruption(t *testing.T) {
	s := &Snapshot{}
	s.Add("only", []byte("data"))
	raw, err := s.encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, len(Magic) + 1, len(raw) / 2, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Errorf("corruption at byte %d accepted", pos)
		} else if !IsCorrupt(err) {
			t.Errorf("corruption at byte %d: error %v is not IsCorrupt", pos, err)
		}
	}
	if _, err := Decode(raw[:len(raw)-6]); err == nil {
		t.Error("truncated container accepted")
	}
}

// TestContainerRejectsFutureVersion pins the refuse-don't-guess rule for
// version skew.
func TestContainerRejectsFutureVersion(t *testing.T) {
	s := &Snapshot{}
	raw, err := s.encode()
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the version varint (Version encodes as one byte right
	// after the magic) and fix up the checksum.
	raw[len(Magic)] = Version + 1
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
	if _, err := Decode(raw); err == nil || !IsCorrupt(err) || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: %v", err)
	}
}

// TestContainerRejectsOldVersions pins that checkpoints written by an
// older codec are rejected cleanly instead of misdecoded: a hand-encoded
// container with a valid checksum must fail with a message naming its
// version, not a codec panic or silent garbage. Version 1 predates the
// correlated-fault counters in the chaos Counts codec; version 3 still
// carries the two message-loss incident slots and the dropped-message
// counter; version 4 still carries the blocked-path chaos counter.
func TestContainerRejectsOldVersions(t *testing.T) {
	for _, v := range []uint64{1, 3, 4} {
		t.Run(fmt.Sprintf("version%d", v), func(t *testing.T) {
			e := &Encoder{}
			e.buf = append(e.buf, Magic...)
			e.Uvarint(v)
			e.Uvarint(0) // no sections
			raw := binary.LittleEndian.AppendUint32(e.Bytes(), crc32.ChecksumIEEE(e.Bytes()))
			want := fmt.Sprintf("version %d", v)
			if _, err := Decode(raw); err == nil || !IsCorrupt(err) || !strings.Contains(err.Error(), want) {
				t.Fatalf("version-%d container: %v", v, err)
			}
		})
	}
}

// TestWriteRejectsDuplicateSections checks container-level validation.
func TestWriteRejectsDuplicateSections(t *testing.T) {
	s := &Snapshot{}
	s.Add("dup", nil)
	s.Add("dup", nil)
	if err := Write(filepath.Join(t.TempDir(), "x.ckpt"), s); err == nil {
		t.Fatal("duplicate section accepted")
	}
	s2 := &Snapshot{}
	s2.Add("", nil)
	if err := Write(filepath.Join(t.TempDir(), "x.ckpt"), s2); err == nil {
		t.Fatal("empty section name accepted")
	}
}

// fullEngineState is an engine-state tree with every optional component
// present: chaos, bank, ladder and a nested inner state.
func fullEngineState() *sched.EngineState {
	return &sched.EngineState{
		Algorithm: sched.SEE,
		Ladder:    &sched.LadderState{Failures: 2, PrimaryBuilt: true, FallbackBuilt: true},
		Inner: &sched.EngineState{
			Algorithm: sched.SEE,
			Chaos: &chaos.InjectorState{
				Slot: 41,
				Counts: chaos.Counts{
					NodeSlotsDown: 3, SegmentsDecohered: 9,
					CutLinkSlotsDown: 4, FlapSlotsDown: 2, BrownoutAttemptsLost: 7,
				},
			},
			Bank: &state.BankState{
				Slot:  41,
				Seq:   17,
				Stats: state.Stats{Deposited: 17, Rejected: 2, Withdrawn: 12, Expired: 3},
				Entries: []state.BankedSegment{
					{A: 1, B: 4, Path: []int{1, 2, 4}, Birth: 40, Seq: 15},
					{A: 0, B: 3, Path: nil, Birth: 41, Seq: 16},
				},
			},
		},
	}
}

// TestEngineStateRoundTrip round-trips a fully loaded engine-state tree.
func TestEngineStateRoundTrip(t *testing.T) {
	st := fullEngineState()
	got, err := DecodeEngineState(EncodeEngineState(st))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, st)
	}
	// The nil tree round-trips too.
	if got, err := DecodeEngineState(EncodeEngineState(nil)); err != nil || got != nil {
		t.Fatalf("nil round trip: %v, %v", got, err)
	}
}

// TestCursorAndTracerCountsRoundTrip round-trips the remaining shared
// codecs.
func TestCursorAndTracerCountsRoundTrip(t *testing.T) {
	e := &Encoder{}
	cur := xrand.Cursor{Seed: -987654321, Pos: 1 << 40}
	AppendCursor(e, cur)
	var counts sched.TracerCounts
	counts.Slots = 100
	counts.Established = 250
	counts.Incidents[sched.IncidentFault] = 7
	counts.Incidents[sched.IncidentBankDeposit] = 31
	AppendTracerCounts(e, counts)

	d := NewDecoder(e.Bytes())
	if got := ReadCursor(d); got != cur {
		t.Errorf("cursor: got %+v", got)
	}
	if got := ReadTracerCounts(d); got != counts {
		t.Errorf("tracer counts: got %+v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteDebugJSON checks the debug dump is valid JSON-ish output written
// atomically.
func TestWriteDebugJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dump.json")
	if err := WriteDebugJSON(path, map[string]int{"slot": 7}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"slot": 7`) {
		t.Fatalf("dump = %q", raw)
	}
}
