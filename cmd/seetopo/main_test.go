package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./cmd/seetopo -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestGolden pins the statistics and the segment census of the default
// 200-node instance and of a small low-attenuation one.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"small", []string{"-nodes", "60", "-pairs", "8", "-seed", "3", "-alpha", "1e-4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("run exited %d, stderr:\n%s", code, stderr.String())
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("output drifted from %s (run with -update if intended)\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// TestRunBadFlags pins the exit codes: usage errors exit 2 and an instance
// the generator rejects exits 1, both before any output.
func TestRunBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-nodes", "x"}, 2, "invalid value"},
		{[]string{"-not-a-flag"}, 2, "not-a-flag"},
		{[]string{"-nodes", "1"}, 1, "need at least 2 nodes"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("run(%q) exited %d, want %d", tc.args, code, tc.code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) wrote to stdout: %q", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("run(%q) stderr %q does not contain %q", tc.args, stderr.String(), tc.stderr)
		}
	}
}
