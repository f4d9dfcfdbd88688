package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"see/internal/experiment"
	"see/internal/sched"
)

// runOK runs seesim and returns its stdout, failing the test on a non-zero
// exit.
func runOK(t *testing.T, args []string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%q) exited %d, stderr:\n%s", args, code, stderr.String())
	}
	return stdout.String()
}

// goldenArgs returns a golden case's arguments with -workers set to w.
func goldenArgs(t *testing.T, name, workers string) []string {
	t.Helper()
	for _, tc := range goldenCases {
		if tc.name == name {
			args := slices.Clone(tc.args)
			args[slices.Index(args, "-workers")+1] = workers
			return args
		}
	}
	t.Fatalf("no golden case %q", name)
	return nil
}

// seesim's sim mode is experiment.RunPoint: every throughput and LP-bound
// line equals the harness's numbers for the same parameters.
func TestMatchesRunPoint(t *testing.T) {
	out := runOK(t, []string{"-alg", "all", "-nodes", "30", "-pairs", "5", "-trials", "10", "-seed", "11"})
	p := experiment.DefaultParams()
	p.Network.Nodes = 30
	p.SDPairs = 5
	p.Trials = 10
	p.BaseSeed = 11
	res, err := experiment.RunPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range sched.Algorithms {
		want := fmt.Sprintf("%-7s %-18.3f %-14.3f\n", a, res[a].Throughput.Mean, res[a].UpperBound)
		if !strings.Contains(out, want) {
			t.Errorf("seesim output lacks RunPoint's line %q:\n%s", want, out)
		}
	}
}

// An algorithm's slot stream follows its value, not its position in the
// selection: SEE, REPS and E2E print the same line alone as under -alg all.
func TestSelectionIndependence(t *testing.T) {
	lines := func(out string) map[string]string {
		m := map[string]string{}
		for _, l := range strings.Split(out, "\n") {
			if f := strings.Fields(l); len(f) == 3 {
				m[f[0]] = l
			}
		}
		return m
	}
	all := lines(runOK(t, goldenArgs(t, "all", "1")))
	for _, name := range []string{"see", "reps", "e2e"} {
		alone := lines(runOK(t, goldenArgs(t, name, "1")))
		for alg, l := range alone {
			if alg == "alg" {
				continue
			}
			if all[alg] != l {
				t.Errorf("-alg %s prints %q, -alg all prints %q", name, l, all[alg])
			}
		}
	}
}

// Trials run in parallel, and stdout is byte-identical at any -workers.
func TestWorkerIndependence(t *testing.T) {
	for _, name := range []string{"all", "knobs", "correlated"} {
		if one, four := runOK(t, goldenArgs(t, name, "1")), runOK(t, goldenArgs(t, name, "4")); one != four {
			t.Errorf("%s: -workers 1 and 4 differ:\n%s\nvs\n%s", name, one, four)
		}
	}
}

// The JSONL event stream stays in trial order at any -workers: only the
// phase timings ("us") may differ.
func TestJSONLTraceWorkerIndependent(t *testing.T) {
	timing := regexp.MustCompile(`"us":\d+`)
	trace := func(workers string) string {
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		args := append(goldenArgs(t, "correlated", workers), "-trials", "3", "-trace-jsonl", path)
		runOK(t, args)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return timing.ReplaceAllString(string(b), `"us":0`)
	}
	one, four := trace("1"), trace("4")
	if one == "" || one != four {
		t.Fatalf("-trace-jsonl streams differ at -workers 1 and 4 (%d vs %d bytes)", len(one), len(four))
	}
}
