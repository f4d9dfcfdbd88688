package see

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// update regenerates the golden file instead of comparing against it:
//
//	go test . -run TestRunExperimentGolden -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestRunExperimentGolden pins RunExperiment's numbers, printed exactly,
// for the paper trio with faults, carry-over and a slot budget, through
// the public-to-harness parameter translation.
func TestRunExperimentGolden(t *testing.T) {
	plan, err := ParseFaultSpec("seed=3;node=2@1-2;decohere=0.05")
	if err != nil {
		t.Fatal(err)
	}
	p := ExperimentParams{NetworkConfig: NetworkConfig{Nodes: 100}, SDPairs: 8, Trials: 2, Seed: 7, Slots: 3}
	p.Workers = 1
	p.Faults = plan
	p.CarryOver = true
	p.DecoherenceSlots = 2
	p.SlotBudget = time.Hour
	res, err := RunExperiment(p)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, alg := range Algorithms {
		pr := res[alg]
		fmt.Fprintf(&b, "%v mean=%v ci95=%v jain=%v cdf.xs=%v cdf.ps=%v\n",
			alg, pr.MeanThroughput, pr.CI95, pr.Jain, pr.CDFXs, pr.CDFPs)
	}
	got := b.String()
	path := filepath.Join("testdata", "runexperiment.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (run with -update if intended)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
