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
//	go test ./cmd/seesim -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenCases pins the canonical stdout of one small, fast configuration
// per engine plus the combined robustness surface (faults + carry +
// incidents). Every case must be deterministic: fixed seed, fixed worker
// count.
var goldenCases = []struct {
	name string
	args []string
}{
	{"see", []string{"-alg", "see", "-nodes", "30", "-pairs", "5", "-trials", "2", "-seed", "7", "-workers", "1"}},
	{"reps", []string{"-alg", "reps", "-nodes", "30", "-pairs", "5", "-trials", "2", "-seed", "7", "-workers", "1"}},
	{"e2e", []string{"-alg", "e2e", "-nodes", "30", "-pairs", "5", "-trials", "2", "-seed", "7", "-workers", "1"}},
	{"greedy", []string{"-alg", "greedy", "-nodes", "30", "-pairs", "5", "-trials", "2", "-seed", "7", "-workers", "1"}},
	{"contend", []string{"-alg", "contend", "-nodes", "30", "-pairs", "5", "-trials", "2", "-seed", "7", "-workers", "1"}},
	{"all", []string{"-alg", "all", "-nodes", "30", "-pairs", "5", "-trials", "2", "-seed", "7", "-workers", "1"}},
	{"faults", []string{"-alg", "greedy,contend", "-nodes", "30", "-pairs", "5", "-trials", "2", "-slots", "4", "-seed", "7", "-workers", "1",
		"-faults", "seed=7;node=2@1-2"}},
	{"carry", []string{"-alg", "greedy,contend", "-nodes", "30", "-pairs", "5", "-trials", "2", "-slots", "4", "-seed", "7", "-workers", "1",
		"-carry", "-decohere-slots", "2"}},
	{"correlated", []string{"-alg", "see,contend,qpass", "-fault-aware", "-nodes", "30", "-pairs", "5", "-trials", "2", "-slots", "6", "-seed", "7", "-workers", "1",
		"-faults", "seed=7;cut:5000,5000,2500@1-2;brown:1,0.5@0-;flap:2,3,0.67@0-;node=!4@3-4"}},
	{"nsfnet", []string{"-alg", "see", "-topo", "nsfnet", "-pairs", "4", "-trials", "2", "-seed", "7", "-workers", "1"}},
	// nsfnet-q0 must differ from nsfnet: explicit zeros reach the loaded
	// topology too.
	{"nsfnet-q0", []string{"-alg", "see", "-topo", "nsfnet", "-pairs", "4", "-trials", "2", "-seed", "7", "-workers", "1",
		"-swap", "0", "-alpha", "0"}},
	{"oracle", []string{"-alg", "see,oracle", "-nodes", "30", "-pairs", "5", "-trials", "2", "-seed", "7", "-workers", "1",
		"-fidelity-floor", "0.6;0=0.7"}},
	// knobs and serve pin every scheduler option seesim forwards (carry
	// window, retention, min-scale, carry-aware LP, floors, swap order,
	// slot budget, faults) in sim mode and in service mode.
	{"knobs", append([]string{"-alg", "see,reps,e2e,contend,greedy", "-nodes", "30", "-pairs", "5", "-trials", "2", "-slots", "4", "-seed", "7", "-workers", "1"},
		knobFlags...)},
	{"serve", append([]string{"-serve", "-alg", "greedy,see", "-nodes", "30", "-pairs", "4", "-slots", "12", "-seed", "5", "-workers", "1",
		"-arrivals", "bursty;rate=2;burst-rate=6;switch=0.2;users=40;max-active=30"}, knobFlags...)},
}

// knobFlags sets every scheduler option flag to a non-default value.
var knobFlags = []string{"-carry", "-decohere-slots", "2", "-carry-retention", "0.9", "-carry-min-scale", "0.5", "-carry-aware-lp",
	"-fidelity-floor", "0.6;0=0.7", "-swap-order", "greedy", "-slot-budget", "1h", "-faults", "seed=3;node=2@1-2;decohere=0.05"}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("run exited %d, stderr:\n%s", code, stderr.String())
			}
			if stderr.Len() != 0 {
				t.Errorf("unexpected stderr output:\n%s", stderr.String())
			}
			path := filepath.Join("testdata", "golden", tc.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
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
				t.Errorf("output drifted from %s (run with -update if intended)\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
}

// TestRunBadFlags locks the CLI's error behavior: bad values exit
// non-zero (2 for usage errors caught at parse time, like an unknown
// topology or a count below 1; 1 for errors the harness or the engines
// report, like a scheduler option engines.Config.Validate rejects) and
// report through stderr, not stdout.
func TestRunBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string // substring the report must contain, if set
	}{
		{[]string{"-alg", "nope"}, 2, ""},
		{[]string{"-topo", "torus"}, 2, "-topo"},
		{[]string{"-traffic", "bursty"}, 2, ""},
		{[]string{"-faults", "node=abc"}, 2, ""},
		{[]string{"-not-a-flag"}, 2, ""},
		{[]string{"-carry", "-carry-retention", "NaN"}, 1, "engines: CarryWernerRetention NaN"},
		// Network values the config would resolve to something else are
		// usage errors, so the header never reports a value the run did
		// not use.
		{[]string{"-nodes", "0"}, 2, "-nodes"},
		{[]string{"-channels", "0"}, 2, "-channels"},
		{[]string{"-memory", "-2"}, 2, "-memory"},
		{[]string{"-swap", "-0.5"}, 2, "-swap"},
		{[]string{"-alpha", "-1"}, 2, "-alpha"},
		// A run needs at least one pair, trial and slot: a negative pair
		// count must not reach the pair samplers, and no trials or slots
		// must not print NaN.
		{[]string{"-pairs", "-1"}, 2, "-pairs"},
		{[]string{"-pairs", "-1", "-traffic", "hotspot"}, 2, "-pairs"},
		{[]string{"-pairs", "-1", "-traffic", "gravity"}, 2, "-pairs"},
		{[]string{"-serve", "-pairs", "-1"}, 2, "-pairs"},
		{[]string{"-trials", "0"}, 2, "-trials"},
		{[]string{"-trials", "-2"}, 2, "-trials"},
		{[]string{"-slots", "0"}, 2, "-slots"},
		{[]string{"-serve", "-slots", "-3"}, 2, "-slots"},
		// A population beyond the server's bound is a usage error, not a
		// panic in the per-user counter allocation.
		{[]string{"-serve", "-nodes", "30", "-pairs", "2", "-alg", "greedy", "-slots", "2",
			"-arrivals", "poisson;users=4611686018427387904"}, 2, "users"},
	} {
		args := tc.args
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != tc.code {
			t.Errorf("run(%q) exited %d, want %d", args, code, tc.code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) wrote to stdout: %q", args, stdout.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("run(%q) reported nothing on stderr", args)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("run(%q) stderr %q does not contain %q", args, stderr.String(), tc.stderr)
		}
	}
}

// TestGoldenCoversAllEngines keeps the golden set in sync with the
// registry: every algorithm name accepted by -alg must appear in some
// golden case.
func TestGoldenCoversAllEngines(t *testing.T) {
	all, err := parseAlgs("all")
	if err != nil {
		t.Fatal(err)
	}
	joined := ""
	for _, tc := range goldenCases {
		joined += strings.Join(tc.args, " ") + "\n"
	}
	for _, a := range all {
		if !strings.Contains(strings.ToLower(joined), strings.ToLower(a.String())) {
			t.Errorf("algorithm %v has no golden case", a)
		}
	}
	for _, name := range []string{"greedy", "contend"} {
		if !strings.Contains(joined, name) {
			t.Errorf("baseline %s has no golden case", name)
		}
	}
}
