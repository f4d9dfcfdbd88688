// Faults demonstrates the robustness layer: deterministic fault injection
// (node crashes, link outages, memory decoherence) and graceful degradation of the LP scheduler to the greedy fallback when
// its solve budget is exceeded. Every event streams to a JSONL trace, written
// into a temporary directory that is removed on exit.
package main

import (
	"bufio"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"see"
)

const slots = 5

func main() {
	dir, err := os.MkdirTemp("", "see-faults-")
	if err != nil {
		log.Fatal(err)
	}
	err = run(filepath.Join(dir, "see-faults.jsonl"))
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		log.Fatal(err)
	}
}

// run is the demonstration, streaming the faulty run's events to trace.
func run(trace string) error {
	cfg := see.DefaultNetworkConfig()
	cfg.Nodes = 60
	net, pairs, err := see.GenerateNetwork(cfg, 8, 42)
	if err != nil {
		return err
	}
	st := net.Stats()
	fmt.Printf("network: %d nodes, %d links, %d SD pairs\n", st.Nodes, st.Links, len(pairs))

	// A compact fault spec: node 3 crashes from slot 1 on, link 10 is down
	// for slots 2-3, and 2% of created segments decohere in memory.
	spec := "seed=7;node=3@1-;link=10@2-3;decohere=0.02"
	plan, err := see.ParseFaultSpec(spec)
	if err != nil {
		return err
	}
	fmt.Printf("fault plan: %s\n\n", plan)

	// Baseline: the same instance without faults.
	fmt.Printf("=== SEE, no faults ===\n")
	clean, err := runSEE(net, pairs, &see.SchedulerOptions{})
	if err != nil {
		return err
	}

	// Same instance, same slot seeds, faults on. Every fault decision is
	// derived from the plan seed, so this run is fully reproducible — and
	// a zero plan would be byte-identical to the run above.
	fmt.Printf("\n=== SEE, faults injected ===\n")
	tracer := see.NewCountingTracer()
	f, err := os.Create(trace)
	if err != nil {
		return err
	}
	jt := see.NewJSONLTracer(f)
	faulty, err := runSEE(net, pairs, &see.SchedulerOptions{
		Faults: plan,
		Tracer: see.MultiTracer(tracer, jt),
	})
	if closeErr := jt.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return err
	}
	c := tracer.Counts()
	fmt.Printf("incidents: faults=%d degraded=%d\n",
		c.IncidentCount(see.IncidentFault),
		c.IncidentCount(see.IncidentDegraded))
	fmt.Printf("throughput: %d established without faults, %d with\n", clean, faulty)
	if err := showTrace(trace); err != nil {
		return err
	}

	// Degradation ladder: an impossible 1ns solve budget forces every slot
	// onto the greedy non-LP fallback — the slots still complete and
	// establish connections instead of the run aborting.
	fmt.Printf("\n=== SEE, 1ns solve budget (forced degradation) ===\n")
	degTracer := see.NewCountingTracer()
	degraded, err := runSEE(net, pairs, &see.SchedulerOptions{
		SlotBudget: time.Nanosecond,
		Tracer:     degTracer,
	})
	if err != nil {
		return err
	}
	dc := degTracer.Counts()
	fmt.Printf("degraded slots: %d, LP retries: %d, established: %d\n",
		dc.IncidentCount(see.IncidentDegraded), dc.IncidentCount(see.IncidentRetry), degraded)
	return nil
}

// runSEE runs the fixed slot schedule and returns total established
// connections. Every run uses the same slot seeds so the configurations
// are comparable.
func runSEE(net *see.Network, pairs []see.SDPair, opts *see.SchedulerOptions) (int, error) {
	sched, err := see.NewScheduler(see.SEE, net, pairs, opts)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(7))
	total := 0
	for s := 0; s < slots; s++ {
		res, err := sched.RunSlot(rng)
		if err != nil {
			return 0, err
		}
		fmt.Printf("slot %d: %3d attempts, %3d segments, %2d established\n",
			s, res.Attempts, res.SegmentsCreated, res.Established)
		total += res.Established
	}
	return total, nil
}

// showTrace prints the first few JSONL events of the streamed slot log,
// naming the file without its temporary directory so the output is the
// same on every run.
func showTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	fmt.Printf("JSONL trace (%s):\n", filepath.Base(path))
	for sc.Scan() {
		if lines < 4 {
			fmt.Printf("  %s\n", sc.Text())
		}
		lines++
	}
	fmt.Printf("  ... %d events total\n", lines)
	return sc.Err()
}
