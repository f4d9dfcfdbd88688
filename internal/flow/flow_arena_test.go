package flow

import (
	"reflect"
	"testing"

	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

func arenaTestSet(t *testing.T) *segment.Set {
	t.Helper()
	cfg := topo.DefaultConfig()
	cfg.Nodes = 24
	net, err := topo.Generate(cfg, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 3, xrand.New(4))
	set, err := segment.Build(net, pairs, segment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestArenaResidualSolvesIdentical mimics REPS's progressive rounding: a
// sequence of solves over the same set with shrinking residual capacities,
// sharing one arena, must match the cold sequence exactly.
func TestArenaResidualSolvesIdentical(t *testing.T) {
	set := arenaTestSet(t)
	net := set.Net

	residualOpts := func(round int) Options {
		ch := make([]int, net.NumLinks())
		for i := range ch {
			ch[i] = max(0, net.Channels[i]-round)
		}
		mem := make([]int, net.NumNodes())
		for i := range mem {
			mem[i] = max(0, net.Memory[i]-round)
		}
		return Options{Channels: ch, Memory: mem}
	}

	arena := &Arena{}
	for round := 0; round < 3; round++ {
		cold, err := SolveCtx(nil, set, residualOpts(round))
		if err != nil {
			t.Fatal(err)
		}
		opts := residualOpts(round)
		opts.Arena = arena
		warm, err := SolveCtx(nil, set, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("round %d: arena solve differs from cold solve", round)
		}
	}
}

// TestArenaDropDeadLinksInvalidation: the candidate tables depend on the
// capacity overrides when DropDeadLinks is set, so an arena built under one
// override must not be replayed under another.
func TestArenaDropDeadLinksInvalidation(t *testing.T) {
	set := arenaTestSet(t)
	net := set.Net

	full := make([]int, net.NumLinks())
	copy(full, net.Channels)
	crippled := make([]int, net.NumLinks())
	copy(crippled, net.Channels)
	// Kill enough links that the dead-marking visibly changes the tables.
	for i := 0; i < len(crippled)/2; i++ {
		crippled[i] = 0
	}

	arena := &Arena{}
	if _, err := SolveCtx(nil, set, Options{DropDeadLinks: true, Channels: full, Arena: arena}); err != nil {
		t.Fatal(err)
	}
	warm, err := SolveCtx(nil, set, Options{DropDeadLinks: true, Channels: crippled, Arena: arena})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := SolveCtx(nil, set, Options{DropDeadLinks: true, Channels: crippled})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("stale arena tables replayed across a DropDeadLinks capacity change")
	}
}

// TestArenaWorkerGrowth: an arena carried from a serial solve must grow its
// per-worker pricing scratch when a later solve uses more workers.
func TestArenaWorkerGrowth(t *testing.T) {
	set := arenaTestSet(t)
	arena := &Arena{}
	cold, err := SolveCtx(nil, set, Options{SwapWeightedObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveCtx(nil, set, Options{SwapWeightedObjective: true, Workers: 1, Arena: arena}); err != nil {
		t.Fatal(err)
	}
	warm, err := SolveCtx(nil, set, Options{SwapWeightedObjective: true, Workers: 3, Arena: arena})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("arena solve at higher worker count differs from cold solve")
	}
}

// TestArenaSequenceAcrossWorkers runs one sequence of solves — both pricing
// oracles, residual capacities, carry weights and two segment sets with
// different row counts — through a single arena at several worker counts.
// The arena recycles the master simplex and every worker's pricing
// scratch, so each solve must still equal a cold, serial solve exactly.
func TestArenaSequenceAcrossWorkers(t *testing.T) {
	big := arenaTestSet(t)
	cfg := topo.DefaultConfig()
	cfg.Nodes = 16
	net, err := topo.Generate(cfg, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	small, err := segment.Build(net, topo.ChooseSDPairs(net, 2, xrand.New(6)), segment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	residual := func(set *segment.Set, cut int) []int {
		ch := append([]int(nil), set.Net.Channels...)
		for i := range ch {
			ch[i] = max(0, ch[i]-(cut+i%3)/3)
		}
		return ch
	}
	weights := make([]float64, len(big.EdgePairs))
	for i := range weights {
		weights[i] = 1 + float64(i%4)*0.5
	}
	type step struct {
		set  *segment.Set
		opts Options
	}
	var steps []step
	for cut := 0; cut < 3; cut++ {
		steps = append(steps, step{big, Options{Channels: residual(big, cut)}})
	}
	steps = append(steps,
		step{big, Options{SwapWeightedObjective: true}},
		step{small, Options{SwapWeightedObjective: true}},
		step{big, Options{SwapWeightedObjective: true, CarryWeights: weights}},
		step{small, Options{Channels: residual(small, 2), DropDeadLinks: true}},
		step{big, Options{}},
	)
	cold := make([]*Solution, len(steps))
	for k, st := range steps {
		opts := st.opts
		opts.Workers = 1
		if cold[k], err = SolveCtx(nil, st.set, opts); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		arena := &Arena{}
		for k, st := range steps {
			opts := st.opts
			opts.Workers = workers
			opts.Arena = arena
			sol, err := SolveCtx(nil, st.set, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sol, cold[k]) {
				t.Fatalf("workers=%d step %d: arena solve differs from cold serial solve", workers, k)
			}
		}
	}
}
