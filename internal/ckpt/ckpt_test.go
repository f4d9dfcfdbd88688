package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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

// withBody renders a checkpoint with a correct header around an arbitrary
// body, so a test reaches the body checks behind the CRC.
func withBody(body string) []byte {
	return fmt.Appendf(nil, "%s %d %08x\n%s", magic, Version, crc32.ChecksumIEEE([]byte(body)), body)
}

// TestContainerRoundTrip writes and reloads a value through a file and
// checks the body after the header line is the value's plain JSON.
func TestContainerRoundTrip(t *testing.T) {
	type value struct {
		Name  string `json:"name"`
		Slot  int    `json:"slot"`
		Items []int  `json:"items"`
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	want := value{Name: "alpha", Slot: 7, Items: []int{1, -2, 3}}
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	var got value
	if err := Read(path, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, body, _ := bytes.Cut(raw, []byte{'\n'})
	if !strings.HasPrefix(string(header), fmt.Sprintf("%s %d ", magic, Version)) {
		t.Fatalf("header %q", header)
	}
	var plain value
	if err := json.Unmarshal(body, &plain); err != nil || !reflect.DeepEqual(plain, want) {
		t.Fatalf("body is not the value's JSON: %v, %+v", err, plain)
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

// TestFloatBitsRoundTrip checks a float64 comes back bit for bit through
// Write and Read, including a sum with no short decimal form, the
// smallest subnormal and negative zero, as do the int64 seed and uint64
// position of an rng cursor at their extremes.
func TestFloatBitsRoundTrip(t *testing.T) {
	type value struct {
		LatencySum float64      `json:"latency_sum"`
		Cursor     xrand.Cursor `json:"cursor"`
	}
	path := filepath.Join(t.TempDir(), "f.ckpt")
	cases := []value{
		{LatencySum: 0.1 + 0.2, Cursor: xrand.Cursor{Seed: math.MinInt64, Pos: math.MaxUint64}},
		{LatencySum: 5e-324, Cursor: xrand.Cursor{Seed: math.MaxInt64, Pos: 1 << 63}},
		{LatencySum: math.Copysign(0, -1)},
		{LatencySum: math.MaxFloat64},
	}
	for _, want := range cases {
		if err := Write(path, want); err != nil {
			t.Fatal(err)
		}
		var got value
		if err := Read(path, &got); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.LatencySum) != math.Float64bits(want.LatencySum) {
			t.Errorf("float %v came back as %v (bits %#x, want %#x)", want.LatencySum, got.LatencySum,
				math.Float64bits(got.LatencySum), math.Float64bits(want.LatencySum))
		}
		if got.Cursor != want.Cursor {
			t.Errorf("cursor %+v came back as %+v", want.Cursor, got.Cursor)
		}
	}
}

// TestContainerRejectsCorruption checks every damaged or malformed file
// is rejected as corrupt: flipped bytes across the header and body, a
// truncation, and well-checksummed bodies that do not decode exactly.
func TestContainerRejectsCorruption(t *testing.T) {
	type value struct {
		Slot int   `json:"slot"`
		Path []int `json:"path"`
	}
	raw, err := Encode(value{Slot: 3, Path: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"unknown field":  withBody(`{"slot": 3, "path": [1, 2], "extra": 1}`),
		"trailing data":  withBody(`{"slot": 3, "path": [1, 2]} {}`),
		"wrong type":     withBody(`{"slot": "3", "path": [1, 2]}`),
		"missing header": raw[bytes.IndexByte(raw, '\n')+1:],
		"bad crc":        bytes.Replace(raw, raw[len(magic)+3:len(magic)+11], []byte("00000000"), 1),
		"truncated":      raw[:len(raw)-5],
		"empty":          nil,
	}
	for _, pos := range []int{0, len(magic) + 1, len(magic) + 4, len(raw) / 2, len(raw) - 2} {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x20
		cases[fmt.Sprintf("flip at %d", pos)] = bad
	}
	for name, bad := range cases {
		var v value
		if err := Decode(bad, &v); err == nil || !IsCorrupt(err) {
			t.Errorf("%s: %v", name, err)
		}
	}
	var v value
	if err := Decode(raw, &v); err != nil || v.Slot != 3 {
		t.Fatalf("intact file: %v, %+v", err, v)
	}
}

// TestContainerRejectsFutureVersion pins the refuse-don't-guess rule for
// version skew.
func TestContainerRejectsFutureVersion(t *testing.T) {
	body := "{}\n"
	raw := fmt.Appendf(nil, "%s %d %08x\n%s", magic, Version+1, crc32.ChecksumIEEE([]byte(body)), body)
	var v struct{}
	want := fmt.Sprintf("version %d", Version+1)
	if err := Decode(raw, &v); err == nil || !IsCorrupt(err) || !strings.Contains(err.Error(), want) {
		t.Fatalf("future version: %v", err)
	}
}

// TestContainerRejectsOldVersions pins that checkpoints in the binary
// container of versions 1–5 ("SEECKPT\n", uvarint version, sections, CRC32
// trailer) are rejected cleanly with a message naming their version, not
// misread as a version-6 file.
func TestContainerRejectsOldVersions(t *testing.T) {
	for _, v := range []uint64{1, 3, 4, 5} {
		t.Run(fmt.Sprintf("version%d", v), func(t *testing.T) {
			raw := append([]byte(magic+"\n"), binary.AppendUvarint(nil, v)...)
			raw = binary.AppendUvarint(raw, 0) // no sections
			raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(raw))
			want := fmt.Sprintf("version %d", v)
			var st sched.EngineState
			if err := Decode(raw, &st); err == nil || !IsCorrupt(err) || !strings.Contains(err.Error(), want) {
				t.Fatalf("version-%d container: %v", v, err)
			}
		})
	}
}

// TestWriteRejectsUnencodable checks a value JSON cannot represent (a NaN)
// fails Write without touching the target or leaving a temp file, and
// that I/O failures are reported but not as corruption.
func TestWriteRejectsUnencodable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ckpt")
	if err := Write(path, struct{ LatencySum float64 }{math.NaN()}); err == nil || IsCorrupt(err) {
		t.Fatalf("NaN value: %v", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("failed write left %d entries", len(entries))
	}
	if err := Write(filepath.Join(dir, "missing", "x.ckpt"), 1); err == nil || IsCorrupt(err) {
		t.Fatalf("write into a missing directory: %v", err)
	}
	var v int
	if err := Read(path, &v); err == nil || IsCorrupt(err) {
		t.Fatalf("read of a missing file: %v", err)
	}
	if err := os.WriteFile(path, []byte("SEECKPT"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Read(path, &v); !IsCorrupt(err) || !strings.Contains(err.Error(), path) {
		t.Fatalf("read of a corrupt file: %v", err)
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
	raw, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	var got *sched.EngineState
	if err := Decode(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, st)
	}
	// The nil tree round-trips too.
	if raw, err = Encode((*sched.EngineState)(nil)); err != nil {
		t.Fatal(err)
	}
	got = fullEngineState()
	if err := Decode(raw, &got); err != nil || got != nil {
		t.Fatalf("nil round trip: %v, %v", got, err)
	}
}

// TestCursorAndTracerCountsRoundTrip round-trips the other state types a
// checkpoint carries.
func TestCursorAndTracerCountsRoundTrip(t *testing.T) {
	type value struct {
		Cursor xrand.Cursor
		Counts sched.TracerCounts
	}
	want := value{Cursor: xrand.Cursor{Seed: -987654321, Pos: 1 << 40}}
	want.Counts.Slots = 100
	want.Counts.Established = 250
	want.Counts.Incidents[sched.IncidentFault] = 7
	want.Counts.Incidents[sched.IncidentBankDeposit] = 31
	raw, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	var got value
	if err := Decode(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}
