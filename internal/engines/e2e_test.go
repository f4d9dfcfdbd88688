package engines

import (
	"testing"

	"see/internal/sched"
	"see/internal/topo"
	"see/internal/xrand"
)

func TestE2ENewEngineValidation(t *testing.T) {
	net, pairs := topo.Motivation()
	if _, err := New(sched.E2E, nil, pairs, Config{}); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := New(sched.E2E, net, nil, Config{}); err == nil {
		t.Fatal("empty pairs accepted")
	}
}

func TestE2EConnectionsAreSingleSegment(t *testing.T) {
	net, pairs := topo.Motivation()
	e, err := New(sched.E2E, net, pairs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	sawConnection := false
	for slot := 0; slot < 200; slot++ {
		res, err := e.RunSlot(rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, conn := range res.Connections {
			sawConnection = true
			if len(conn.Segments) != 1 {
				t.Fatalf("E2E built a %d-segment connection", len(conn.Segments))
			}
			if len(conn.Nodes) != 2 {
				t.Fatal("E2E connection has swap junctions")
			}
			sd := pairs[conn.Pair]
			if conn.Nodes[0] != sd.S || conn.Nodes[len(conn.Nodes)-1] != sd.D {
				t.Fatal("E2E connection endpoints wrong")
			}
		}
	}
	if !sawConnection {
		t.Fatal("E2E never established anything on the motivation fixture")
	}
}

// E2E throughput on the motivation fixture: each pair's best full-path
// segment succeeds with probability 0.8 (s2-r1-d2) and 0.75 (s1-r1-r2-d1),
// and the two share no link. Mean throughput should sit near the sum of
// whichever plans EPI makes; just require a sane band strictly above zero
// and at most 2.
func TestE2EMotivationThroughputBand(t *testing.T) {
	net, pairs := topo.Motivation()
	e, err := New(sched.E2E, net, pairs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	const slots = 3000
	total := 0
	for i := 0; i < slots; i++ {
		res, err := e.RunSlot(rng)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Established
	}
	mean := float64(total) / slots
	if mean <= 0.3 || mean > 2 {
		t.Fatalf("E2E mean throughput %.3f outside (0.3, 2]", mean)
	}
}

// E2E must degrade with SD-pair distance much faster than SEE: on a long
// line with realistic attenuation, the full-path success probability is
// tiny.
func TestE2ESuffersOnLongPaths(t *testing.T) {
	cfg := topo.DefaultConfig()
	cfg.Nodes = 50
	net, err := topo.Generate(cfg, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 5, xrand.New(9))
	e, err := New(sched.E2E, net, pairs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(10)
	total := 0
	const slots = 50
	for i := 0; i < slots; i++ {
		res, err := e.RunSlot(rng)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Established
	}
	// Soft bound: with mean link prob ~0.8 and multi-hop SD pairs, E2E
	// cannot possibly saturate the per-pair caps; it usually establishes
	// only a few connections per slot.
	if float64(total)/slots > float64(len(pairs))*3 {
		t.Fatalf("E2E unexpectedly strong: %v per slot", float64(total)/slots)
	}
}
