package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden file instead of comparing against it:
//
//	go test ./cmd/seefig -run TestFig2Golden -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestFig2Golden pins the Fig. 2 motivation table. The sweeps (Figs. 3–7)
// run at a fixed 200 nodes and take seconds even at one trial, so they
// are covered by internal/experiment's tests instead.
func TestFig2Golden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d, stderr:\n%s", code, stderr.String())
	}
	path := filepath.Join("testdata", "fig2.txt")
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
}

// TestRunBadFlags pins the exit codes: usage errors exit 2 before any
// output, and a sweep the harness rejects exits 1 with its reason.
func TestRunBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-fig", "9"}, 2, `unknown -fig "9"`},
		{[]string{"-not-a-flag"}, 2, "not-a-flag"},
		{[]string{"-fig", "3", "-trials", "0"}, 1, "Trials must be positive"},
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
