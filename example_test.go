package see_test

import (
	"fmt"
	"log"
	"math/rand"

	"see"
)

// The basic loop: generate a network, build a scheduler, run time slots.
func ExampleNewScheduler() {
	cfg := see.DefaultNetworkConfig()
	cfg.Nodes = 60
	net, pairs, err := see.GenerateNetwork(cfg, 6, 42)
	if err != nil {
		log.Fatal(err)
	}
	sched, err := see.NewScheduler(see.SEE, net, pairs, nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sched.RunSlot(rand.New(rand.NewSource(7)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Established >= 0 && len(res.PerPair) == 6)
	// Output: true
}

// The Fig. 2 values are exact.
func ExampleMotivationExample() {
	conv, seg := see.MotivationExample()
	fmt.Printf("conventional %.3f, segmented %.3f\n", conv, seg)
	// Output: conventional 0.729, segmented 1.489
}

// The reference NSFNET topology ships with the library.
func ExampleNSFNETNetwork() {
	net, err := see.NSFNETNetwork(see.DefaultNetworkConfig(), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(net.NumNodes(), net.NumLinks())
	// Output: 14 21
}

// A queued request workload over many slots: every request that arrives
// is served, rejected at admission, expired or still queued.
func ExampleNewTrafficServer() {
	net, pairs := see.MotivationNetwork()
	sched, err := see.NewScheduler(see.SEE, net, pairs, nil)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := see.ParseArrivalSpec("poisson;rate=1;users=4;max-active=8")
	if err != nil {
		log.Fatal(err)
	}
	cfg.Seed = 3
	srv, err := see.NewTrafficServer(sched, len(pairs), cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Run(20, nil); err != nil {
		log.Fatal(err)
	}
	rep := srv.Report()
	fmt.Println(rep.Arrived == rep.Served+rep.Rejected+rep.Expired+rep.Backlog)
	// Output: true
}
