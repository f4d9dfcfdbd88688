// Package ckpt is the checkpoint file format of the pipeline. A checkpoint
// is one Go value — for service mode, serve's checkpoint struct holding the
// engine state (bank contents, chaos phase, degradation ladder), the rng
// cursor, tracer offsets and the arrival/queue state — written so a killed
// server resumes byte-identical for its remaining slots.
//
// A file is one header line, "SEECKPT <version> <crc32>", followed by the
// value's indented encoding/json body; the CRC-32 (IEEE) is over the body,
// in eight lowercase hex digits. JSON writes every float64 as the shortest
// string that parses back to the same bits, so the body is both the exact
// state and its human-readable dump (tail -n +2 x.ckpt | jq .).
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// magic opens the header line of a checkpoint file.
const magic = "SEECKPT"

// Version is the format version this build writes and the only one it
// reads. Readers reject other versions outright rather than misinterpret
// state — a wrong resume is worse than no resume.
//
// History: 1–5 were a binary container ("SEECKPT\n", uvarint version,
// named varint-coded sections, CRC32 trailer) whose section codecs listed
// every field by hand; 2, 4 and 5 only widened or narrowed those lists.
// 6 is the header line plus a JSON body, so a field added to a state type
// is carried without a codec change.
const Version = 6

// errCorrupt is the sentinel wrapped by every Decode failure.
var errCorrupt = errors.New("ckpt: corrupt checkpoint")

// IsCorrupt reports whether an error came from checkpoint validation (bad
// header, version, checksum or body) rather than I/O.
func IsCorrupt(err error) bool { return errors.Is(err, errCorrupt) }

// Encode renders v as a checkpoint: the header line, then v's indented
// JSON body.
func Encode(v any) ([]byte, error) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	body = append(body, '\n')
	raw := fmt.Appendf(nil, "%s %d %08x\n", magic, Version, crc32.ChecksumIEEE(body))
	return append(raw, body...), nil
}

// Decode parses a checkpoint produced by Encode into v, validating the
// header, version and checksum. The body must decode into v exactly: an
// unknown field or trailing data is rejected. Every failure wraps
// errCorrupt (see IsCorrupt).
func Decode(raw []byte, v any) error {
	header, body, _ := bytes.Cut(raw, []byte{'\n'})
	tag, rest, _ := strings.Cut(string(header), " ")
	if tag != magic {
		return fmt.Errorf("%w: bad header", errCorrupt)
	}
	if rest == "" {
		// A binary container of versions 1–5: the uvarint version follows
		// the magic's newline.
		old, _ := binary.Uvarint(body)
		return fmt.Errorf("%w: format version %d, this build reads %d", errCorrupt, old, Version)
	}
	verText, sum, _ := strings.Cut(rest, " ")
	if verText != strconv.Itoa(Version) {
		return fmt.Errorf("%w: format version %s, this build reads %d", errCorrupt, verText, Version)
	}
	if sum != fmt.Sprintf("%08x", crc32.ChecksumIEEE(body)) {
		return fmt.Errorf("%w: checksum mismatch", errCorrupt)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", errCorrupt, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: trailing data after the body", errCorrupt)
	}
	return nil
}

// Write atomically replaces path with the checkpoint of v: the file is
// written to a temporary file in the same directory, synced, and renamed
// over the target, so a crash mid-checkpoint leaves either the old
// checkpoint or the new one — never a torn file.
func Write(path string, v any) error {
	raw, err := Encode(v)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
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

// Read loads and validates the checkpoint file at path into v.
func Read(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := Decode(raw, v); err != nil {
		return fmt.Errorf("%w (%s)", err, path)
	}
	return nil
}
