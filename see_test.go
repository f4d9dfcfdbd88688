package see

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"see/internal/engines"
	"see/internal/experiment"
	"see/internal/qnet"
	"see/internal/topo"
	"see/internal/xrand"
)

func TestGenerateNetworkAndStats(t *testing.T) {
	cfg := DefaultNetworkConfig()
	cfg.Nodes = 50
	net, pairs, err := GenerateNetwork(cfg, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	st := net.Stats()
	if st.Nodes != 50 || st.Links != net.inner.NumLinks() || st.AvgDegree <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanLinkProb < 0.5 || st.MeanLinkProb > 1 {
		t.Fatalf("mean link prob = %v", st.MeanLinkProb)
	}
	// Determinism.
	net2, pairs2, err := GenerateNetwork(cfg, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if net2.inner.NumLinks() != net.inner.NumLinks() || pairs2[0] != pairs[0] {
		t.Fatal("same seed produced a different network")
	}
}

// GenerateNetwork is the experiment harness's instance draw for a Waxman
// graph under uniform traffic, and a negative pair count is an error, not
// a panic in the pair sampler.
func TestGenerateNetworkIsHarnessDraw(t *testing.T) {
	cfg := DefaultNetworkConfig()
	cfg.Nodes = 40
	net, pairs, err := GenerateNetwork(cfg, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	p := experiment.Params{Network: cfg.toTopo(), SDPairs: 6}
	inner, want, err := p.Instance(xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if topo.Fingerprint(net.inner) != topo.Fingerprint(inner) || !slices.Equal(pairs, want) {
		t.Fatal("GenerateNetwork differs from experiment.Params.Instance")
	}
	if _, pairs, err := GenerateNetwork(cfg, 0, 9); err != nil || len(pairs) != 0 {
		t.Fatalf("zero pairs: %v pairs, err %v", len(pairs), err)
	}
	if _, _, err := GenerateNetwork(cfg, -1, 9); err == nil {
		t.Fatal("negative pair count accepted")
	}
}

func TestNewSchedulerValidation(t *testing.T) {
	net, pairs := MotivationNetwork()
	if _, err := NewScheduler(SEE, nil, pairs, nil); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := NewScheduler(Algorithm(99), net, pairs, nil); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAllSchedulersRun(t *testing.T) {
	cfg := DefaultNetworkConfig()
	cfg.Nodes = 40
	net, pairs, err := GenerateNetwork(cfg, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{SEE, REPS, E2E} {
		sched, err := NewScheduler(alg, net, pairs, nil)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if sched.Algorithm() != alg {
			t.Fatalf("Algorithm() = %v, want %v", sched.Algorithm(), alg)
		}
		if sched.UpperBound() < 0 {
			t.Fatalf("%v: negative upper bound", alg)
		}
		total := 0
		for slot := 0; slot < 10; slot++ {
			res, err := sched.RunSlot(rand.New(rand.NewSource(int64(slot))))
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			if res.Established < 0 || len(res.PerPair) != len(pairs) {
				t.Fatalf("%v: malformed result %+v", alg, res)
			}
			sum := 0
			for _, c := range res.PerPair {
				sum += c
			}
			if sum != res.Established {
				t.Fatalf("%v: PerPair sum mismatch", alg)
			}
			total += res.Established
		}
		if alg != E2E && total == 0 {
			t.Fatalf("%v: established nothing in 10 slots", alg)
		}
	}
}

func TestSchedulerDeterministicPerSeed(t *testing.T) {
	net, pairs := MotivationNetwork()
	sched, err := NewScheduler(SEE, net, pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sched.RunSlot(rand.New(rand.NewSource(3)))
	a = a.Clone() // the next slot reuses the result
	b, _ := sched.RunSlot(rand.New(rand.NewSource(3)))
	if a.Established != b.Established || a.Attempts != b.Attempts {
		t.Fatal("scheduler not deterministic per seed")
	}
}

func TestMotivationExampleValues(t *testing.T) {
	conv, seeVal := MotivationExample()
	if math.Abs(conv-0.729) > 1e-9 {
		t.Fatalf("conventional = %v, want 0.729", conv)
	}
	if math.Abs(seeVal-1.4885) > 1e-9 {
		t.Fatalf("SEE = %v, want 1.4885 (paper rounds to 1.489)", seeVal)
	}
}

func TestRunExperimentSmall(t *testing.T) {
	p := DefaultExperimentParams()
	p.Nodes = 40
	p.SDPairs = 4
	p.Trials = 3
	res, err := RunExperiment(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{SEE, REPS, E2E} {
		pr, ok := res[alg]
		if !ok {
			t.Fatalf("missing %v", alg)
		}
		if pr.MeanThroughput < 0 {
			t.Fatalf("%v: negative throughput", alg)
		}
		if pr.Jain < 0 || pr.Jain > 1+1e-9 {
			t.Fatalf("%v: Jain = %v", alg, pr.Jain)
		}
		if len(pr.CDFXs) != len(pr.CDFPs) {
			t.Fatalf("%v: CDF length mismatch", alg)
		}
	}
	if res[SEE].MeanThroughput < res[E2E].MeanThroughput*0.5 {
		t.Fatal("SEE implausibly weak vs E2E")
	}
}

// TestSchedulerOptionsValidate checks that every construction path
// applies the one options validation: out-of-range values are rejected by
// engines.New (plain and under a slot budget) and by NewScheduler, the
// same values experiment.Params.Validate rejects.
func TestSchedulerOptionsValidate(t *testing.T) {
	net, pairs := MotivationNetwork()
	for _, tc := range []struct {
		name string
		opts SchedulerOptions
	}{
		{"unknown swap order", SchedulerOptions{SwapOrder: SwapOrder(7)}},
		{"unknown swap order under budget", SchedulerOptions{SwapOrder: SwapOrder(7), SlotBudget: time.Hour}},
		{"negative workers", SchedulerOptions{Workers: -1}},
		{"negative decoherence", SchedulerOptions{CarryOver: true, DecoherenceSlots: -3}},
		{"negative budget", SchedulerOptions{SlotBudget: -1}},
		{"floor above one", SchedulerOptions{FidelityFloors: &FloorSpec{Default: 1.5}}},
		{"negative pair floor", SchedulerOptions{FidelityFloors: &FloorSpec{PerPair: map[int]float64{0: -0.1}}}},
	} {
		if _, err := engines.New(SEE, net.inner, pairs, tc.opts); err == nil {
			t.Errorf("%s: engines.New accepted", tc.name)
		}
		if _, err := NewScheduler(SEE, net, pairs, &tc.opts); err == nil {
			t.Errorf("%s: NewScheduler accepted", tc.name)
		}
	}
	if _, err := NewScheduler(SEE, net, pairs, &SchedulerOptions{SwapOrder: qnet.SwapOrderGreedy, FidelityFloors: &FloorSpec{Default: 1}}); err != nil {
		t.Errorf("in-range options rejected: %v", err)
	}
}

func TestNSFNETNetworkAndLoad(t *testing.T) {
	net, err := NSFNETNetwork(DefaultNetworkConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if st := net.Stats(); st.Nodes != 14 || st.Links != 21 {
		t.Fatalf("NSFNET = %d nodes, %d links", st.Nodes, st.Links)
	}
	pairs := ChoosePairs(net, 4, 2)
	if len(pairs) != 4 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	// All three schedulers must run on the reference topology.
	for _, alg := range []Algorithm{SEE, REPS, E2E} {
		sched, err := NewScheduler(alg, net, pairs, nil)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if _, err := sched.RunSlot(rand.New(rand.NewSource(5))); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
	// Loader surface.
	spec := "node 0 0 0\nnode 1 500 0\nlink 0 1\n"
	small, err := LoadNetwork(strings.NewReader(spec), DefaultNetworkConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if small.inner.NumNodes() != 2 {
		t.Fatal("loaded network wrong")
	}
	if _, err := LoadNetwork(strings.NewReader("garbage\n"), DefaultNetworkConfig(), 3); err == nil {
		t.Fatal("garbage spec accepted")
	}
}

func TestSchedulerTracerObservesAllEngines(t *testing.T) {
	net, pairs := MotivationNetwork()
	for _, alg := range Algorithms {
		tr := NewCountingTracer()
		sc, err := NewScheduler(alg, net, pairs, &SchedulerOptions{Tracer: tr})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for slot := 0; slot < 10; slot++ {
			if _, err := sc.RunSlot(rand.New(rand.NewSource(int64(slot)))); err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
		}
		c := tr.Counts()
		if c.Slots != 10 {
			t.Errorf("%v: Slots = %d, want 10", alg, c.Slots)
		}
		if c.AttemptsReserved == 0 || c.AttemptsResolved == 0 {
			t.Errorf("%v: no attempt events observed: %+v", alg, c)
		}
		phases := 0
		for ph := Phase(0); ph < 4; ph++ {
			phases += tr.PhaseLatency(ph).N
		}
		if phases == 0 {
			t.Errorf("%v: no phase-latency events observed", alg)
		}
	}
}

func TestNetworkConfigExplicitZero(t *testing.T) {
	// Sparse configs keep the paper defaults...
	def := DefaultNetworkConfig()
	sparse := NetworkConfig{Nodes: 30}.toTopo()
	if sparse.SwapProb != def.SwapProb || sparse.Alpha != def.Alpha || sparse.Delta != def.Delta {
		t.Fatalf("sparse config lost defaults: %+v", sparse)
	}
	// ...while a negative value forces an actual zero.
	zeroed := NetworkConfig{Nodes: 30, SwapProb: -1, Alpha: -1, Delta: -1}.toTopo()
	if zeroed.SwapProb != 0 || zeroed.Alpha != 0 || zeroed.Delta != 0 {
		t.Fatalf("negative value not honored: %+v", zeroed)
	}
	// A q=0 network can create segments but never completes a swap, so SEE
	// still establishes single-segment connections only.
	cfg := DefaultNetworkConfig()
	cfg.Nodes = 40
	cfg.SwapProb = -1
	net, pairs, err := GenerateNetwork(cfg, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewCountingTracer()
	sc, err := NewScheduler(SEE, net, pairs, &SchedulerOptions{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 5; slot++ {
		if _, err := sc.RunSlot(rand.New(rand.NewSource(int64(slot)))); err != nil {
			t.Fatal(err)
		}
	}
	if c := tr.Counts(); c.SwapsSucceeded != 0 {
		t.Fatalf("q=0 network succeeded %d swaps", c.SwapsSucceeded)
	}

	// Every network constructor resolves the config the same way: explicit zeros reach
	// the loaded topologies too, and a sparse config is the default one.
	constructors := []struct {
		name  string
		build func(NetworkConfig) (*Network, error)
	}{
		{"waxman", func(c NetworkConfig) (*Network, error) {
			net, _, err := GenerateNetwork(c, 0, 7)
			return net, err
		}},
		{"nsfnet", func(c NetworkConfig) (*Network, error) { return NSFNETNetwork(c, 7) }},
		{"load", func(c NetworkConfig) (*Network, error) {
			spec := "node 0 0 0\nnode 1 800 0\nnode 2 800 900\nlink 0 1\nlink 1 2\nlink 0 2\n"
			return LoadNetwork(strings.NewReader(spec), c, 7)
		}},
	}
	for _, b := range constructors {
		zero, err := b.build(NetworkConfig{Nodes: 30, SwapProb: -1, Alpha: -1, Delta: -1})
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		for u, q := range zero.inner.SwapProb {
			if q != 0 {
				t.Fatalf("%s: negative swap probability gave node %d q = %v", b.name, u, q)
			}
		}
		if p := zero.Stats().MeanLinkProb; p != 1 {
			t.Fatalf("%s: negative alpha and delta gave mean link probability %v, want 1", b.name, p)
		}
		sparse, err := b.build(NetworkConfig{})
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		full, err := b.build(DefaultNetworkConfig())
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if !slices.Equal(sparse.inner.SwapProb, full.inner.SwapProb) || sparse.Stats() != full.Stats() {
			t.Fatalf("%s: sparse config built %+v, default config %+v", b.name, sparse.Stats(), full.Stats())
		}
	}
}

func TestChoosePairsWithTraffic(t *testing.T) {
	cfg := DefaultNetworkConfig()
	cfg.Nodes = 50
	net, _, err := GenerateNetwork(cfg, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []Traffic{TrafficUniform, TrafficHotspot, TrafficGravity} {
		pairs := ChoosePairsWithTraffic(net, 8, pattern, 4)
		if len(pairs) != 8 {
			t.Fatalf("pattern %d: got %d pairs", pattern, len(pairs))
		}
		// Pairs must be schedulable.
		if _, err := NewScheduler(SEE, net, pairs, nil); err != nil {
			t.Fatalf("pattern %d: %v", pattern, err)
		}
	}
}
