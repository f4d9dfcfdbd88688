// Workload drives the three schedulers against the same multi-slot
// request workload (the scenario the paper's introduction motivates:
// networking quantum computers that continuously produce qubits to
// teleport) through the traffic server, and compares delivery rate,
// queueing latency and — using the Werner-state extension — the fidelity
// of the delivered entanglement.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"see"
)

// spec offers 6 requests per slot from 10 users, user u bound to SD pair
// u mod 10, so each pair sees Poisson(0.6) arrivals. One class with a
// 50-slot deadline means nothing expires over the 50-slot run; max-active
// bounds the total backlog.
const spec = "poisson;rate=6;users=10;mix=0/0/1;deadline=50/50/50;max-active=200"

func main() {
	cfg := see.DefaultNetworkConfig()
	cfg.Nodes = 100
	net, pairs, err := see.GenerateNetwork(cfg, 10, 21)
	if err != nil {
		log.Fatal(err)
	}
	const slots = 50

	fmt.Printf("workload: %d slots, arrivals %q\n\n", slots, spec)
	fmt.Printf("%-5s %-10s %-10s %-10s %-10s %-10s %-12s\n",
		"alg", "arrived", "served", "rejected", "latency", "backlog", "established")
	for _, alg := range []see.Algorithm{see.SEE, see.REPS, see.E2E} {
		sched, err := see.NewScheduler(alg, net, pairs, nil)
		if err != nil {
			log.Fatal(err)
		}
		scfg, err := see.ParseArrivalSpec(spec)
		if err != nil {
			log.Fatal(err)
		}
		scfg.Seed = 5
		srv, err := see.NewTrafficServer(sched, len(pairs), scfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.Run(slots, nil); err != nil {
			log.Fatal(err)
		}
		// mix=0/0/1 makes every request bronze, the last class.
		rep := srv.Report()
		fmt.Printf("%-5s %-10d %-10d %-10d %-10.2f %-10d %-12d\n", alg, rep.Arrived, rep.Served,
			rep.Rejected, rep.PerClass[len(rep.PerClass)-1].MeanLatency, rep.Backlog, rep.Established)
	}

	// Fidelity comparison (Werner-state extension): SEE's connections use
	// fewer swaps but longer optical segments than REPS's link chains. Every
	// established connection carries its delivered fidelity under the
	// default Werner model.
	fmt.Println("\nmean delivered-entanglement fidelity (Werner model, 30 slots):")
	for _, alg := range []see.Algorithm{see.SEE, see.REPS} {
		sched, err := see.NewScheduler(alg, net, pairs, nil)
		if err != nil {
			log.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		var sum float64
		var n int
		for slot := 0; slot < 30; slot++ {
			res, err := sched.RunSlot(rng)
			if err != nil {
				log.Fatal(err)
			}
			for _, c := range res.Connections {
				sum += c.Fidelity
				n++
			}
		}
		fmt.Printf("  %-4v: %.4f over %d connections\n", alg, sum/float64(n), n)
	}
}
