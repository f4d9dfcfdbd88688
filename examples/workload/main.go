// Workload drives the three schedulers against the same multi-slot qubit
// workload (the scenario the paper's introduction motivates: networking
// quantum computers that continuously produce qubits to teleport) and
// compares delivery rate, queueing latency and — using the Werner-state
// extension — the fidelity of the delivered entanglement.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"see"
)

func main() {
	cfg := see.DefaultNetworkConfig()
	cfg.Nodes = 100
	net, pairs, err := see.GenerateNetwork(cfg, 10, 21)
	if err != nil {
		log.Fatal(err)
	}
	w := see.WorkloadConfig{Slots: 50, ArrivalsPerPair: 0.6, QueueCap: 20, Seed: 5}

	fmt.Printf("workload: %d slots, %.1f qubits/pair/slot offered, queue cap %d\n\n",
		w.Slots, w.ArrivalsPerPair, w.QueueCap)
	fmt.Printf("%-5s %-10s %-10s %-10s %-12s %-10s\n",
		"alg", "arrived", "delivered", "dropped", "latency", "backlog")
	for _, alg := range []see.Algorithm{see.SEE, see.REPS, see.E2E} {
		sched, err := see.NewScheduler(alg, net, pairs, nil)
		if err != nil {
			log.Fatal(err)
		}
		res, err := see.RunWorkload(sched, len(pairs), w)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s %-10d %-10d %-10d %-12.2f %-10d\n",
			alg, res.Arrived, res.Delivered, res.Dropped, res.MeanLatencySlots, res.Backlog)
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
