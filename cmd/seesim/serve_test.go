package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"see/internal/ckpt"
	"see/internal/xrand"
)

// serveArgs are a small, fast service-mode configuration shared by the
// CLI-level tests.
func serveArgs(extra ...string) []string {
	args := []string{
		"-serve", "-alg", "greedy", "-nodes", "40", "-pairs", "4",
		"-slots", "20", "-seed", "5",
		"-arrivals", "bursty;rate=2;burst-rate=8;switch=0.2;users=40;max-active=30",
	}
	return append(args, extra...)
}

// slotLines extracts the deterministic per-slot lines from a run's output.
func slotLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "slot ") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestServeKillResume is the CLI-level kill/resume invariant: crash a
// checkpointing run mid-way (-die-at), resume it, and the combined slot
// lines and final summary are byte-identical to an uninterrupted run.
func TestServeKillResume(t *testing.T) {
	dir := t.TempDir()

	var full bytes.Buffer
	if code := run(serveArgs(), &full, &full); code != 0 {
		t.Fatalf("uninterrupted run exited %d:\n%s", code, full.String())
	}
	want := slotLines(full.String())
	if len(want) != 20 {
		t.Fatalf("uninterrupted run printed %d slot lines", len(want))
	}

	var crash bytes.Buffer
	code := run(serveArgs("-ckpt-dir", dir, "-ckpt-every", "7", "-die-at", "11"), &crash, &crash)
	if code != 3 {
		t.Fatalf("crashed run exited %d, want 3:\n%s", code, crash.String())
	}
	// The checkpoint body after its header line is the readable state.
	raw, err := os.ReadFile(filepath.Join(dir, "greedy.ckpt"))
	if err != nil {
		t.Fatalf("no checkpoint after crash: %v", err)
	}
	_, body, _ := bytes.Cut(raw, []byte{'\n'})
	var dump struct {
		Slot int `json:"slot"`
	}
	if err := json.Unmarshal(body, &dump); err != nil || dump.Slot != 7 {
		t.Fatalf("checkpoint body is not JSON at slot 7: %v, %+v", err, dump)
	}

	var resumed bytes.Buffer
	if code := run(serveArgs("-ckpt-dir", dir, "-ckpt-every", "7", "-resume"), &resumed, &resumed); code != 0 {
		t.Fatalf("resumed run exited %d:\n%s", code, resumed.String())
	}
	// Checkpoints land after slots 6 and 13; dying after slot 11 leaves
	// the slot-7 one as the latest.
	if !strings.Contains(resumed.String(), "# resume Greedy at slot 7") {
		t.Fatalf("resume did not pick up the slot-7 checkpoint:\n%s", resumed.String())
	}
	got := slotLines(resumed.String())
	if len(got) != 13 {
		t.Fatalf("resumed run printed %d slot lines, want 13", len(got))
	}
	for i, line := range got {
		if line != want[7+i] {
			t.Errorf("resumed slot line %d diverged:\n got %s\nwant %s", 7+i, line, want[7+i])
		}
	}
	wantSummary := full.String()[strings.Index(full.String(), "# Greedy service summary"):]
	gotSummary := resumed.String()[strings.Index(resumed.String(), "# Greedy service summary"):]
	if gotSummary != wantSummary {
		t.Errorf("resumed summary diverged:\n got %s\nwant %s", gotSummary, wantSummary)
	}

	// Resume is idempotent: a second resume has nothing to run and
	// reproduces the summary again.
	var again bytes.Buffer
	if code := run(serveArgs("-ckpt-dir", dir, "-resume"), &again, &again); code != 0 {
		t.Fatalf("second resume exited %d:\n%s", code, again.String())
	}
	if n := len(slotLines(again.String())); n != 0 {
		t.Errorf("second resume re-ran %d slots", n)
	}
	if !strings.HasSuffix(again.String(), wantSummary) {
		t.Errorf("second resume summary diverged:\n%s", again.String())
	}
}

// TestServeResumeRejectsCorruptCheckpoint checks a checkpoint damaged on
// disk stops the resume with a corruption error before any slot runs.
func TestServeResumeRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if code := run(serveArgs("-ckpt-dir", dir, "-slots", "5"), &out, &out); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out.String())
	}
	path := filepath.Join(dir, "greedy.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[bytes.IndexByte(raw, '\n')+len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(serveArgs("-ckpt-dir", dir, "-resume"), &stdout, &stderr); code != 1 {
		t.Fatalf("resume from a corrupt checkpoint exited %d, want 1:\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "corrupt checkpoint") {
		t.Errorf("stderr does not name the corruption:\n%s", stderr.String())
	}
	if n := len(slotLines(stdout.String())); n != 0 {
		t.Errorf("resume from a corrupt checkpoint printed %d slot lines", n)
	}
}

// TestServeFlagValidation covers service-mode flag rejection paths.
func TestServeFlagValidation(t *testing.T) {
	cases := [][]string{
		serveArgs("-resume"),                            // -resume without -ckpt-dir
		serveArgs("-ckpt-dir", "x", "-ckpt-every", "0"), // bad cadence
		serveArgs("-arrivals", "mmpp;rate=1"),           // unknown process
	}
	for _, args := range cases {
		var out bytes.Buffer
		if code := run(args, &out, &out); code != 2 {
			t.Errorf("args %v exited %d, want 2:\n%s", args, code, out.String())
		}
	}
}

// TestServeResumeBeyondHorizon checks a checkpoint past -slots is an
// error, not a silent no-op.
func TestServeResumeBeyondHorizon(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if code := run(serveArgs("-ckpt-dir", dir), &out, &out); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out.String())
	}
	var short bytes.Buffer
	if code := run(serveArgs("-ckpt-dir", dir, "-resume", "-slots", "10"), &short, &short); code != 1 {
		t.Errorf("resume past the horizon exited %d, want 1:\n%s", code, short.String())
	}
}

// TestServeResumeRejectsForgedCursor checks that a checkpoint whose CRC
// was fixed up after its rng position was set to 10¹³, hours of replay,
// fails within 1 s before any slot runs: with its slot left at 5 the
// per-slot cursor ceiling rejects it, and with its slot raised to 10⁷ to
// admit the cursor the -slots horizon does.
func TestServeResumeRejectsForgedCursor(t *testing.T) {
	for _, tc := range []struct {
		slot int
		want string
	}{
		{5, "rng position"},
		{10_000_000, "beyond the run's 20 slots"},
	} {
		dir := t.TempDir()
		var out bytes.Buffer
		if code := run(serveArgs("-ckpt-dir", dir, "-slots", "5"), &out, &out); code != 0 {
			t.Fatalf("run exited %d:\n%s", code, out.String())
		}
		path := filepath.Join(dir, "greedy.ckpt")
		var body map[string]json.RawMessage
		if err := ckpt.Read(path, &body); err != nil {
			t.Fatal(err)
		}
		var cur xrand.Cursor
		if err := json.Unmarshal(body["rng"], &cur); err != nil {
			t.Fatal(err)
		}
		cur.Pos = 1e13
		body["rng"], _ = json.Marshal(cur)
		body["slot"], _ = json.Marshal(tc.slot)
		if err := ckpt.Write(path, body); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		start := time.Now()
		code := run(serveArgs("-ckpt-dir", dir, "-resume"), &stdout, &stderr)
		if d := time.Since(start); d > time.Second {
			t.Errorf("slot %d: resume from a forged cursor took %v", tc.slot, d)
		}
		if code != 1 {
			t.Fatalf("slot %d: resume from a forged cursor exited %d, want 1:\n%s%s", tc.slot, code, stdout.String(), stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("slot %d: stderr does not say %q:\n%s", tc.slot, tc.want, stderr.String())
		}
		if n := len(slotLines(stdout.String())); n != 0 {
			t.Errorf("slot %d: resume from a forged cursor printed %d slot lines", tc.slot, n)
		}
	}
}

// TestJSONLTracerWriteErrorFailsRun pins the exit-code contract of a
// failing trace stream: buffered JSONL writes can first surface at the
// final flush, and a truncated trace must not exit 0.
func TestJSONLTracerWriteErrorFailsRun(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs /dev/full")
	}
	var out bytes.Buffer
	args := []string{
		"-alg", "greedy", "-nodes", "40", "-pairs", "4",
		"-trials", "1", "-slots", "1", "-trace-jsonl", "/dev/full",
	}
	if code := run(args, &out, &out); code == 0 {
		t.Fatalf("run with an unwritable trace stream exited 0:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "trace-jsonl") {
		t.Errorf("no trace-jsonl diagnostic in output:\n%s", out.String())
	}
}
