// Serve runs the slot pipeline as a long-lived entanglement traffic
// server (DESIGN.md §8): a bursty arrival process generates requests with
// QoS classes and deadlines, an admission controller bounds the backlog,
// and the server reports throughput next to Jain fairness and per-class
// service rates. Half-way through, the full pipeline state — request
// queues, RNG cursor, arrival-process phase, tracer counters — is
// checkpointed to disk; a second server built from scratch resumes from
// the file and finishes the run, and the example verifies the resumed
// slot trace is byte-identical to the uninterrupted one.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"see"
)

const (
	slots = 60
	split = 30 // checkpoint-and-kill boundary
)

func main() {
	cfg := see.DefaultNetworkConfig()
	cfg.Nodes = 60
	net, pairs, err := see.GenerateNetwork(cfg, 6, 11)
	if err != nil {
		log.Fatal(err)
	}

	spec := "bursty;rate=1;burst-rate=6;switch=0.2;users=50;mix=2/3/5;deadline=3/6/12;max-active=40"
	fmt.Printf("service mode: %d slots, arrivals %q\n\n", slots, spec)

	dir, err := os.MkdirTemp("", "see-serve")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "greedy.ckpt")

	// Reference: one uninterrupted run.
	full := runServer(net, pairs, spec, slots, "", nil)

	// Interrupted run: serve the first half, checkpoint, and "crash" by
	// dropping the server on the floor.
	first := runServer(net, pairs, spec, split, ckpt, nil)

	// Resume: a brand-new server restores the file and serves the rest.
	rest := runServer(net, pairs, spec, slots, "", func(srv *see.TrafficServer) {
		if err := srv.ResumeFrom(ckpt, slots); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resumed from %s at slot %d\n\n", filepath.Base(ckpt), srv.Slot())
	})

	resumed := append(first, rest...)
	fmt.Printf("%-28s %-10s\n", "", "slot lines")
	fmt.Printf("%-28s %-10d\n", "uninterrupted run", len(full))
	fmt.Printf("%-28s %-10d\n", "checkpoint + resume", len(resumed))
	for i := range full {
		if full[i] != resumed[i] {
			log.Fatalf("slot %d diverged after resume:\n full    %s\n resumed %s", i, full[i], resumed[i])
		}
	}
	fmt.Println("\nevery slot line identical: the checkpoint captured the full pipeline state.")
}

// runServer builds a fresh Greedy scheduler + traffic server, optionally
// restores it (prep), serves until the horizon, optionally checkpoints at
// the end (ckpt), and returns the per-slot trace lines. The final report
// is printed only for full-horizon runs.
func runServer(net *see.Network, pairs []see.SDPair, spec string, horizon int, ckpt string, prep func(*see.TrafficServer)) []string {
	tracer := see.NewCountingTracer()
	sched, err := see.NewScheduler(see.Greedy, net, pairs, &see.SchedulerOptions{Tracer: tracer})
	if err != nil {
		log.Fatal(err)
	}
	scfg, err := see.ParseArrivalSpec(spec)
	if err != nil {
		log.Fatal(err)
	}
	scfg.Seed = 7
	scfg.Tracer = tracer
	srv, err := see.NewTrafficServer(sched, len(pairs), scfg)
	if err != nil {
		log.Fatal(err)
	}
	if prep != nil {
		prep(srv)
	}

	var lines []string
	err = srv.Run(horizon-srv.Slot(), func(st *see.ServeSlotStats) error {
		lines = append(lines, fmt.Sprintf("slot %3d arrived=%d admitted=%d expired=%d served=%d backlog=%d",
			st.Slot, st.Arrived, st.Admitted, st.Expired, st.Served, st.Backlog))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	if ckpt != "" {
		if err := srv.WriteCheckpoint(ckpt); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checkpointed %s at slot %d (its JSON body after the header line is the readable state)\n\n",
			filepath.Base(ckpt), srv.Slot())
	}

	if srv.Slot() == slots {
		r := srv.Report()
		fmt.Printf("report: served %d/%d, throughput %.3f/slot, fairness %.3f, backlog %d\n",
			r.Served, r.Arrived, r.Throughput, r.Fairness, r.Backlog)
		for c, name := range []string{"gold", "silver", "bronze"} {
			cr := r.PerClass[c]
			fmt.Printf("  %-7s served %3d/%3d rate=%.3f expired=%d latency=%.2f slots\n",
				name, cr.Served, cr.Arrived, cr.ServiceRate, cr.Expired, cr.MeanLatency)
		}
		fmt.Println()
	}
	return lines
}
