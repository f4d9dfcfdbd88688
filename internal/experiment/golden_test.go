package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"see/internal/chaos"
	"see/internal/engines"
	"see/internal/qnet"
)

// update regenerates the golden file instead of comparing against it:
//
//	go test ./internal/experiment -run TestRunPointGolden -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestRunPointGolden pins RunPoint's numbers, printed exactly, for every
// registered algorithm under every scheduler option the harness forwards:
// faults, slot budget, carry-over with a 2-slot window, fidelity floors,
// greedy swap order and carry-aware LP.
func TestRunPointGolden(t *testing.T) {
	plan, err := chaos.ParseSpec("seed=3;node=2@1-2;decohere=0.05")
	if err != nil {
		t.Fatal(err)
	}
	floors, err := qnet.ParseFloorSpec("0.6;0=0.7")
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Network.Nodes = 100
	p.SDPairs = 8
	p.Trials = 2
	p.Slots = 3
	p.Workers = 1
	p.Algorithms = engines.List()
	p.Faults = plan
	p.SlotBudget = time.Hour
	p.CarryOver = true
	p.DecoherenceSlots = 2
	p.FidelityFloors = floors
	p.SwapOrder = qnet.SwapOrderGreedy
	p.CarryAwareLP = true
	res, err := RunPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, alg := range p.Algorithms {
		pr := res[alg]
		s := pr.Throughput
		fmt.Fprintf(&b, "%v n=%d mean=%v std=%v ci95=%v min=%v max=%v median=%v jain=%v cdf.xs=%v cdf.ps=%v\n",
			alg, s.N, s.Mean, s.Std, s.CI95, s.Min, s.Max, s.MedianApprox, pr.Jain, pr.PerPairCDF.Xs, pr.PerPairCDF.Ps)
	}
	checkGolden(t, filepath.Join("testdata", "runpoint.txt"), b.String())
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
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
