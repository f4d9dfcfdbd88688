package qnet

import (
	"math"
	"testing"

	"see/internal/graph"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

func motivationSet(t *testing.T) (*segment.Set, *topo.Network) {
	t.Helper()
	net, pairs := topo.Motivation()
	set, err := segment.Build(net, pairs, segment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return set, net
}

func TestLedgerReserveRelease(t *testing.T) {
	set, net := motivationSet(t)
	l := NewLedger(net)
	c := set.For(topo.MotivS2, topo.MotivD2)[0] // 2-hop, endpoints s2, d2
	if c == nil {
		t.Fatal("missing candidate")
	}
	if !l.CanReserve(c) {
		t.Fatal("fresh ledger must allow reservation")
	}
	if err := l.Reserve(c, 1); err != nil {
		t.Fatal(err)
	}
	channels, memory := l.Free()
	if memory[topo.MotivS2] != 0 || memory[topo.MotivD2] != 0 {
		t.Fatal("endpoint memory not consumed")
	}
	if memory[topo.MotivR1] != 2 {
		t.Fatal("interior node memory must not be consumed (all-optical switching)")
	}
	for _, e := range c.EdgeIDs {
		if channels[e] != 0 {
			t.Fatal("channel not consumed")
		}
	}
	if ch, mem := ledgerUsed(l, net); ch != 2 || mem != 2 {
		t.Fatalf("used = %d channels, %d memory; want 2, 2", ch, mem)
	}
	// Channel exhausted: same candidate cannot be reserved again.
	if l.CanReserve(c) {
		t.Fatal("reservation must fail once channels are gone")
	}
	if err := l.Reserve(c, 1); err == nil {
		t.Fatal("Reserve must error when resources are missing")
	}
	if err := l.Release(c, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Double release overflows capacity.
	if err := l.Release(c, 1); err == nil {
		t.Fatal("over-release must error")
	}
}

// ledgerUsed returns the channels and memory currently reserved on the
// ledger over the network's capacities.
func ledgerUsed(l *Ledger, net *topo.Network) (channels, memory int) {
	freeCh, freeMem := l.Free()
	for e, f := range freeCh {
		channels += net.Channels[e] - f
	}
	for u, f := range freeMem {
		memory += net.Memory[u] - f
	}
	return channels, memory
}

func TestLedgerValidateDetectsCorruption(t *testing.T) {
	_, net := motivationSet(t)
	l := NewLedger(net)
	l.chanFree[0] = -1
	if err := l.Validate(); err == nil {
		t.Fatal("negative channel balance accepted")
	}
	l.chanFree[0] = 0
	l.memFree[0] = net.Memory[0] + 1
	if err := l.Validate(); err == nil {
		t.Fatal("over-capacity memory accepted")
	}
}

func TestAttemptPlanAccounting(t *testing.T) {
	set, _ := motivationSet(t)
	c1 := set.For(topo.MotivS1, topo.MotivR1)[0]
	c2 := set.For(topo.MotivS2, topo.MotivD2)[0]
	plan := planOf(PlanEntry{Cand: c1, N: 2}, PlanEntry{Cand: c2, N: 3})
	if plan.TotalAttempts() != 5 {
		t.Fatalf("TotalAttempts = %d, want 5", plan.TotalAttempts())
	}
}

func TestArenaAttemptDeterministicAndDistributed(t *testing.T) {
	set, _ := motivationSet(t)
	c := set.For(topo.MotivS1, topo.MotivR1)[0] // p = 0.9
	plan := AttemptPlan{{Cand: c, N: 1000}}
	a := attemptFresh(plan, xrand.New(5), nil, nil)
	b := attemptFresh(plan, xrand.New(5), nil, nil)
	if len(a) != len(b) {
		t.Fatal("Arena.Attempt not deterministic for a fixed seed")
	}
	rate := float64(len(a)) / 1000
	if math.Abs(rate-0.9) > 0.04 {
		t.Fatalf("success rate %v, want ~0.9", rate)
	}
	for _, s := range a {
		if s.Pair() != segment.MakePairKey(topo.MotivS1, topo.MotivR1) {
			t.Fatal("segment endpoints wrong")
		}
		if s.Consumed() {
			t.Fatal("fresh segment must not be consumed")
		}
	}
}

func TestPoolTakeReturn(t *testing.T) {
	set, _ := motivationSet(t)
	c := set.For(topo.MotivS1, topo.MotivR1)[0]
	pk := segment.MakePairKey(topo.MotivS1, topo.MotivR1)
	pool := NewPool([]*Segment{
		{A: pk.U, B: pk.V, Cand: c},
		{A: pk.U, B: pk.V, Cand: c},
	})
	if available(pool, pk) != 2 {
		t.Fatalf("Available = %d, want 2", available(pool, pk))
	}
	s1 := take(pool, pk)
	if s1 == nil || available(pool, pk) != 1 {
		t.Fatal("Take failed")
	}
	s2 := take(pool, pk)
	if s2 == nil || take(pool, pk) != nil {
		t.Fatal("pool must exhaust after two takes")
	}
	pool.Return(s1)
	if available(pool, pk) != 1 {
		t.Fatal("Return did not restore availability")
	}
	if got := availablePairs(pool); len(got) != 1 || got[0] != pk {
		t.Fatalf("Pairs = %v", got)
	}
	take(pool, pk)
	if got := availablePairs(pool); len(got) != 0 {
		t.Fatalf("exhausted pool Pairs = %v", got)
	}
}

func buildConnection(t *testing.T, set *segment.Set) *Connection {
	t.Helper()
	cl := set.For(topo.MotivS1, topo.MotivR1)[0]
	cs := set.For(topo.MotivR1, topo.MotivD1)[0]
	conn := &Connection{
		Pair:  0,
		Nodes: graph.Path{topo.MotivS1, topo.MotivR1, topo.MotivD1},
		Segments: []*Segment{
			{A: cl.U(), B: cl.V(), Cand: cl},
			{A: cs.U(), B: cs.V(), Cand: cs},
		},
	}
	if err := conn.Validate(); err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestConnectionJunctionsAndSwap(t *testing.T) {
	set, net := motivationSet(t)
	conn := buildConnection(t, set)
	j := conn.Nodes[1 : len(conn.Nodes)-1]
	if len(j) != 1 || j[0] != topo.MotivR1 {
		t.Fatalf("junctions = %v, want [r1]", j)
	}
	if net.SwapProb[j[0]] != 0.9 {
		t.Fatalf("junction swap probability = %v, want 0.9", net.SwapProb[j[0]])
	}
	// Monte-Carlo swap without spares matches the junction's probability.
	rng := xrand.New(12)
	ok := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if conn.EstablishOrderedObserved(net, NewPool(nil), nil, rng, nil, SwapOrderPath, nil) {
			ok++
		}
	}
	if rate := float64(ok) / n; math.Abs(rate-0.9) > 0.01 {
		t.Fatalf("swap success rate = %v, want ~0.9", rate)
	}
	// Direct (single-segment) connection needs no swap.
	direct := &Connection{
		Pair:     1,
		Nodes:    graph.Path{topo.MotivS2, topo.MotivD2},
		Segments: []*Segment{{A: topo.MotivS2, B: topo.MotivD2, Cand: set.For(topo.MotivS2, topo.MotivD2)[0]}},
	}
	if len(direct.Nodes) != 2 {
		t.Fatal("direct connection must have no junctions")
	}
}

func TestConnectionValidate(t *testing.T) {
	set, _ := motivationSet(t)
	conn := buildConnection(t, set)
	conn.Nodes = graph.Path{topo.MotivS1}
	if err := conn.Validate(); err == nil {
		t.Fatal("1-node connection accepted")
	}
	conn = buildConnection(t, set)
	conn.Segments = conn.Segments[:1]
	if err := conn.Validate(); err == nil {
		t.Fatal("segment/node count mismatch accepted")
	}
	conn = buildConnection(t, set)
	conn.Segments[0], conn.Segments[1] = conn.Segments[1], conn.Segments[0]
	if err := conn.Validate(); err == nil {
		t.Fatal("mis-ordered segments accepted")
	}
}

func TestEstablishWithRetriesNoJunctions(t *testing.T) {
	set, net := motivationSet(t)
	c := set.For(topo.MotivS2, topo.MotivD2)[0]
	conn := &Connection{
		Pair:     1,
		Nodes:    graph.Path{topo.MotivS2, topo.MotivD2},
		Segments: []*Segment{{A: c.U(), B: c.V(), Cand: c}},
	}
	pool := NewPool(nil)
	if !conn.EstablishOrderedObserved(net, pool, nil, xrand.New(1), nil, SwapOrderPath, nil) {
		t.Fatal("junction-free connection must always establish")
	}
	if len(conn.Spares) != 0 {
		t.Fatal("junction-free connection must not consume spares")
	}
}

func TestEstablishWithRetriesConsumesSpares(t *testing.T) {
	set, net := motivationSet(t)
	// Force the junction swap to fail often: set q very low and give the
	// pool plenty of spares; establishment must eventually succeed and
	// consume spares.
	net.SwapProb[topo.MotivR1] = 0.2
	cl := set.For(topo.MotivS1, topo.MotivR1)[0]
	cs := set.For(topo.MotivR1, topo.MotivD1)[0]
	mk := func(c *segment.Candidate) *Segment { return &Segment{A: c.U(), B: c.V(), Cand: c} }
	var spares []*Segment
	for i := 0; i < 200; i++ {
		spares = append(spares, mk(cl), mk(cs))
	}
	pool := NewPool(spares)
	conn := &Connection{
		Pair:     0,
		Nodes:    graph.Path{topo.MotivS1, topo.MotivR1, topo.MotivD1},
		Segments: []*Segment{mk(cl), mk(cs)},
	}
	rng := xrand.New(7)
	if !conn.EstablishOrderedObserved(net, pool, nil, rng, nil, SwapOrderPath, nil) {
		t.Fatal("establishment with 200 spares at q=0.2 should succeed")
	}
	if len(conn.Spares) == 0 {
		t.Fatal("expected some spares to be consumed at q=0.2 (seed-dependent but overwhelmingly likely)")
	}
	if len(conn.Spares)%2 != 0 {
		t.Fatal("spares must be consumed in left/right pairs")
	}
	for k, s := range conn.Spares {
		if want := conn.Segments[k%2].Pair(); s.Pair() != want {
			t.Fatalf("spare %d spans %v, want %v", k, s.Pair(), want)
		}
	}
	for _, s := range conn.Spares {
		if !s.Consumed() {
			t.Fatal("consumed spare not marked consumed")
		}
	}
}

func TestEstablishWithRetriesFailsWithoutSpares(t *testing.T) {
	set, net := motivationSet(t)
	net.SwapProb[topo.MotivR1] = 0 // swap can never succeed
	cl := set.For(topo.MotivS1, topo.MotivR1)[0]
	cs := set.For(topo.MotivR1, topo.MotivD1)[0]
	mk := func(c *segment.Candidate) *Segment { return &Segment{A: c.U(), B: c.V(), Cand: c} }
	pool := NewPool(nil)
	conn := &Connection{
		Pair:     0,
		Nodes:    graph.Path{topo.MotivS1, topo.MotivR1, topo.MotivD1},
		Segments: []*Segment{mk(cl), mk(cs)},
	}
	if conn.EstablishOrderedObserved(net, pool, nil, xrand.New(3), nil, SwapOrderPath, nil) {
		t.Fatal("q=0 with empty pool must fail")
	}
}

// Retry statistics: with q = 0.5 and unlimited spares, the expected number
// of retries per junction is 1; verify the empirical mean.
func TestEstablishWithRetriesGeometric(t *testing.T) {
	set, net := motivationSet(t)
	net.SwapProb[topo.MotivR1] = 0.5
	cl := set.For(topo.MotivS1, topo.MotivR1)[0]
	cs := set.For(topo.MotivR1, topo.MotivD1)[0]
	mk := func(c *segment.Candidate) *Segment { return &Segment{A: c.U(), B: c.V(), Cand: c} }
	rng := xrand.New(11)
	totalSpares := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		var inventory []*Segment
		for k := 0; k < 100; k++ {
			inventory = append(inventory, mk(cl), mk(cs))
		}
		pool := NewPool(inventory)
		conn := &Connection{
			Pair:     0,
			Nodes:    graph.Path{topo.MotivS1, topo.MotivR1, topo.MotivD1},
			Segments: []*Segment{mk(cl), mk(cs)},
		}
		if !conn.EstablishOrderedObserved(net, pool, nil, rng, nil, SwapOrderPath, nil) {
			t.Fatal("establishment with 100 spares at q=0.5 failed")
		}
		totalSpares += len(conn.Spares)
	}
	// E[retries] = (1-q)/q = 1, each consuming 2 spares.
	mean := float64(totalSpares) / trials
	if math.Abs(mean-2) > 0.15 {
		t.Fatalf("mean spares consumed = %.3f, want ~2", mean)
	}
}
