package ckpt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Magic identifies a checkpoint file; it doubles as a format sanity check
// (the trailing newline catches text-mode transfer mangling, the same trick
// PNG uses).
const Magic = "SEECKPT\n"

// Version is the container format version this build writes and the only
// one it reads. Bump it when the framing or a known section codec changes
// incompatibly; readers reject other versions outright rather than
// misinterpret state — a wrong resume is worse than no resume.
//
// History: 2 widened the chaos Counts codec with the correlated-fault
// counters (CutLinkSlotsDown, FlapSlotsDown, BrownoutAttemptsLost).
// 3 widened the tracer incident array with floor_reject and appended the
// floor-rejected counter to the service-state section (fidelity floors).
// 4 dropped the two message-loss slots from the tracer incident array and
// the dropped-message counter from the chaos Counts codec.
// 5 dropped the always-zero blocked-path counter from the chaos Counts
// codec.
const Version = 5

// Section is one named, length-prefixed payload of a snapshot. Names keep
// payloads self-describing: a reader takes the sections it knows and can
// report exactly which ones it does not.
type Section struct {
	Name string
	Data []byte
}

// Snapshot is an in-memory checkpoint: an ordered list of named sections.
// The zero value is an empty snapshot ready for Add.
type Snapshot struct {
	sections []Section
}

// Add appends a section. Duplicate names are rejected at write time, not
// here, so builders stay infallible.
func (s *Snapshot) Add(name string, data []byte) {
	s.sections = append(s.sections, Section{Name: name, Data: data})
}

// Section returns the named payload and whether it exists.
func (s *Snapshot) Section(name string) ([]byte, bool) {
	for _, sec := range s.sections {
		if sec.Name == name {
			return sec.Data, true
		}
	}
	return nil, false
}

// Names lists the section names in order.
func (s *Snapshot) Names() []string {
	out := make([]string, len(s.sections))
	for i, sec := range s.sections {
		out[i] = sec.Name
	}
	return out
}

// encode renders the container: magic, version, section table, CRC32
// trailer over everything before it.
func (s *Snapshot) encode() ([]byte, error) {
	seen := make(map[string]bool, len(s.sections))
	e := &Encoder{}
	e.buf = append(e.buf, Magic...)
	e.Uvarint(Version)
	e.Uvarint(uint64(len(s.sections)))
	for _, sec := range s.sections {
		if sec.Name == "" {
			return nil, fmt.Errorf("ckpt: section with empty name")
		}
		if seen[sec.Name] {
			return nil, fmt.Errorf("ckpt: duplicate section %q", sec.Name)
		}
		seen[sec.Name] = true
		e.String(sec.Name)
		e.Blob(sec.Data)
	}
	sum := crc32.ChecksumIEEE(e.Bytes())
	e.buf = binary.LittleEndian.AppendUint32(e.buf, sum)
	return e.Bytes(), nil
}

// Decode parses a container produced by encode, validating magic, version,
// framing and checksum. Every validation failure wraps errCorrupt (see
// IsCorrupt) so callers can distinguish a damaged checkpoint from plain
// I/O trouble.
func Decode(raw []byte) (*Snapshot, error) {
	if len(raw) < len(Magic)+4 || string(raw[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", errCorrupt)
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", errCorrupt)
	}
	d := NewDecoder(body[len(Magic):])
	if v := d.Uvarint(); d.Err() != nil || v != Version {
		return nil, fmt.Errorf("%w: format version %d, this build reads %d", errCorrupt, v, Version)
	}
	n := d.Uvarint()
	s := &Snapshot{}
	for i := uint64(0); i < n; i++ {
		name := d.String()
		data := d.Blob()
		if d.Err() != nil {
			break
		}
		s.Add(name, data)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	return s, nil
}

// Write atomically replaces path with the snapshot: the container is
// written to a temporary file in the same directory, synced, and renamed
// over the target, so a crash mid-checkpoint leaves either the old
// checkpoint or the new one — never a torn file.
func Write(path string, s *Snapshot) error {
	raw, err := s.encode()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// Read loads and validates a checkpoint file.
func Read(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	s, err := Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return s, nil
}

// WriteDebugJSON writes an indented JSON rendering of v next to a binary
// checkpoint (same atomic replacement discipline). The dump is for humans
// and tools like jq — Restore never reads it, so its schema can evolve
// freely.
func WriteDebugJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("ckpt: marshaling debug dump: %w", err)
	}
	raw = append(raw, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-json-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}
