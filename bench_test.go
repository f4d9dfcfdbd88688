package see_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§IV). Each BenchmarkFig* runs the corresponding parameter
// sweep at a reduced trial count (benchTrials; the paper uses 100 — use
// cmd/seefig -trials 100 for paper-scale numbers) and logs the same
// rows/series the paper plots. Custom metrics report the headline
// throughputs so `go test -bench` output is self-describing:
//
//	SEE/slot, REPS/slot, E2E/slot — mean established connections per slot
//	                                at the sweep's default point.
//
// Micro-benchmarks at the bottom cover the expensive substrates (LP solve,
// column generation, Yen) and the ablations called out in DESIGN.md.

import (
	"fmt"
	"runtime"
	"testing"

	"see/internal/contend"
	"see/internal/core"
	"see/internal/experiment"
	"see/internal/flow"
	"see/internal/graph"
	"see/internal/greedy"
	"see/internal/reps"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/warm"
	"see/internal/xrand"
)

// benchTrials trades benchmark wall-clock against noise; shapes are stable
// from ~3 trials, paper-scale error bars need 100.
const benchTrials = 3

func benchParams() experiment.Params {
	p := experiment.DefaultParams()
	p.Trials = benchTrials
	return p
}

// reportSweep logs the figure's series and reports each algorithm's mean
// throughput at the given x as a custom metric.
func reportSweep(b *testing.B, sw *experiment.Sweep, defaultX float64) {
	b.Helper()
	b.Log("\n" + sw.Table())
	for _, pt := range sw.Points {
		if pt.X != defaultX {
			continue
		}
		b.ReportMetric(pt.Results[experiment.SEE].Throughput.Mean, "SEE/slot")
		b.ReportMetric(pt.Results[experiment.REPS].Throughput.Mean, "REPS/slot")
		b.ReportMetric(pt.Results[experiment.E2E].Throughput.Mean, "E2E/slot")
	}
}

// BenchmarkMotivation regenerates the Fig. 2 table: expected connections of
// the conventional and segmented solutions on the 6-node fixture.
func BenchmarkMotivation(b *testing.B) {
	var r experiment.MotivationResult
	for i := 0; i < b.N; i++ {
		r = experiment.Motivation()
	}
	b.Logf("\nFig. 2: conventional=%.3f SEE=%.3f (%.2fx)", r.Conventional, r.SEE, r.SEE/r.Conventional)
	b.ReportMetric(r.Conventional, "conv")
	b.ReportMetric(r.SEE, "SEE")
}

// BenchmarkFig3LinkCapacity regenerates Fig. 3(a): throughput vs channels
// per link, 2–7.
func BenchmarkFig3LinkCapacity(b *testing.B) {
	var sw *experiment.Sweep
	var err error
	for i := 0; i < b.N; i++ {
		if sw, err = experiment.Fig3LinkCapacity(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
	reportSweep(b, sw, 3)
}

// BenchmarkFig4Alpha regenerates Fig. 4(a): throughput vs attenuation
// parameter α ∈ {1..5}×1e-4.
func BenchmarkFig4Alpha(b *testing.B) {
	var sw *experiment.Sweep
	var err error
	for i := 0; i < b.N; i++ {
		if sw, err = experiment.Fig4Alpha(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
	reportSweep(b, sw, 2)
}

// BenchmarkFig5SwapProb regenerates Fig. 5(a): throughput vs swapping
// success probability 0.5–1.0 (including the REPS/E2E crossover).
func BenchmarkFig5SwapProb(b *testing.B) {
	var sw *experiment.Sweep
	var err error
	for i := 0; i < b.N; i++ {
		if sw, err = experiment.Fig5SwapProb(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
	reportSweep(b, sw, 0.9)
}

// BenchmarkFig6Nodes regenerates Fig. 6(a): throughput vs network scale
// 100–500 nodes.
func BenchmarkFig6Nodes(b *testing.B) {
	var sw *experiment.Sweep
	var err error
	for i := 0; i < b.N; i++ {
		if sw, err = experiment.Fig6Nodes(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
	reportSweep(b, sw, 200)
}

// BenchmarkFig7SDPairs regenerates Fig. 7(a): throughput vs workload,
// 10–50 SD pairs.
func BenchmarkFig7SDPairs(b *testing.B) {
	var sw *experiment.Sweep
	var err error
	for i := 0; i < b.N; i++ {
		if sw, err = experiment.Fig7SDPairs(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
	reportSweep(b, sw, 20)
}

// --- Ablation benches (design choices called out in DESIGN.md §5) ---

func ablationNetwork(b *testing.B) (*topo.Network, []topo.SDPair) {
	b.Helper()
	cfg := topo.DefaultConfig()
	net, err := topo.Generate(cfg, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	return net, topo.ChooseSDPairs(net, 20, xrand.New(2))
}

func seeMeanThroughput(b *testing.B, net *topo.Network, pairs []topo.SDPair, opts core.Options, slots int) float64 {
	b.Helper()
	eng, err := core.NewEngine(net, pairs, opts)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(3)
	total := 0
	for s := 0; s < slots; s++ {
		res, err := eng.RunSlot(rng)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Established
	}
	return float64(total) / float64(slots)
}

// BenchmarkAblationObjective compares SEE with the swap-survival-weighted
// LP objective (default) against the paper-literal unweighted objective.
func BenchmarkAblationObjective(b *testing.B) {
	net, pairs := ablationNetwork(b)
	var weighted, plain float64
	for i := 0; i < b.N; i++ {
		o := core.DefaultOptions()
		weighted = seeMeanThroughput(b, net, pairs, o, 5)
		o.Flow.SwapWeightedObjective = false
		plain = seeMeanThroughput(b, net, pairs, o, 5)
	}
	b.Logf("\nSEE objective ablation: weighted=%.2f plain=%.2f", weighted, plain)
	b.ReportMetric(weighted, "weighted/slot")
	b.ReportMetric(plain, "plain/slot")
}

// BenchmarkAblationSegmentHops sweeps SEE's segment hop cap: 1 reproduces
// the link-only setting, larger caps admit longer all-optical segments.
func BenchmarkAblationSegmentHops(b *testing.B) {
	net, pairs := ablationNetwork(b)
	caps := []int{1, 2, 4, 10}
	out := make([]float64, len(caps))
	for i := 0; i < b.N; i++ {
		for k, hopCap := range caps {
			o := core.DefaultOptions()
			o.Segment.MaxSegmentHops = hopCap
			out[k] = seeMeanThroughput(b, net, pairs, o, 5)
		}
	}
	for k, hopCap := range caps {
		b.Logf("MaxSegmentHops=%2d: %.2f connections/slot", hopCap, out[k])
	}
	b.ReportMetric(out[0], "hops1/slot")
	b.ReportMetric(out[len(out)-1], "hops10/slot")
}

// BenchmarkAblationKPaths sweeps the Yen candidate budget.
func BenchmarkAblationKPaths(b *testing.B) {
	net, pairs := ablationNetwork(b)
	ks := []int{1, 3, 5, 8}
	out := make([]float64, len(ks))
	for i := 0; i < b.N; i++ {
		for j, k := range ks {
			o := core.DefaultOptions()
			o.Segment.KPaths = k
			out[j] = seeMeanThroughput(b, net, pairs, o, 5)
		}
	}
	for j, k := range ks {
		b.Logf("KPaths=%d: %.2f connections/slot", k, out[j])
	}
	b.ReportMetric(out[0], "k1/slot")
	b.ReportMetric(out[len(out)-1], "k8/slot")
}

// BenchmarkAblationREPSRounding sweeps REPS's progressive-rounding LP
// budget (the schedule the SEE paper criticizes as slow).
func BenchmarkAblationREPSRounding(b *testing.B) {
	net, pairs := ablationNetwork(b)
	budgets := []int{1, 3, 6, 12}
	out := make([]float64, len(budgets))
	for i := 0; i < b.N; i++ {
		for j, budget := range budgets {
			eng, err := reps.NewEngine(net, pairs, reps.Options{RoundingSolves: budget})
			if err != nil {
				b.Fatal(err)
			}
			rng := xrand.New(3)
			total := 0
			const slots = 5
			for s := 0; s < slots; s++ {
				res, err := eng.RunSlot(rng)
				if err != nil {
					b.Fatal(err)
				}
				total += res.Established
			}
			out[j] = float64(total) / slots
		}
	}
	for j, budget := range budgets {
		b.Logf("RoundingSolves=%2d: %.2f connections/slot", budget, out[j])
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkColumnGeneration measures one full SEE LP solve at paper scale.
func BenchmarkColumnGeneration(b *testing.B) {
	net, pairs := ablationNetwork(b)
	set, err := segment.Build(net, pairs, core.DefaultOptions().Segment)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := flow.Solve(set, flow.Options{SwapWeightedObjective: true})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Objective <= 0 {
			b.Fatal("degenerate LP")
		}
	}
}

// repsLinkSet builds REPS's link-only candidate set for the paper-scale
// instance: one-hop segments, so column generation prices plain shortest
// paths rather than running the layered swap-weighted DP.
func repsLinkSet(b *testing.B) *segment.Set {
	b.Helper()
	net, pairs := ablationNetwork(b)
	opts := segment.DefaultOptions()
	opts.MaxSegmentHops = 1
	opts.MinProb = 0
	set, err := segment.Build(net, pairs, opts)
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// BenchmarkColumnGenerationPlain measures one plain-pricing solve — the
// unit-weight objective REPS provisions with — at paper scale.
func BenchmarkColumnGenerationPlain(b *testing.B) {
	set := repsLinkSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := flow.Solve(set, flow.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Objective <= 0 {
			b.Fatal("degenerate LP")
		}
	}
}

// BenchmarkColumnGenerationArena measures REPS's progressive-rounding
// pattern: six plain-pricing re-solves sharing one flow.Arena while the
// residual channel capacities shrink.
func BenchmarkColumnGenerationArena(b *testing.B) {
	set := repsLinkSet(b)
	residual := make([][]int, 6)
	for round := range residual {
		residual[round] = make([]int, len(set.Net.Channels))
		for l, c := range set.Net.Channels {
			residual[round][l] = max(0, c-(round+l%3)/3)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena := &flow.Arena{}
		for _, ch := range residual {
			if _, err := flow.Solve(set, flow.Options{Channels: ch, Arena: arena}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkColumnGenerationCarry measures the carry-aware SEE engine's
// per-slot LP re-solve: swap-weighted column generation over one shared
// flow.Arena, each solve under different carry weights (edges covered by
// banked segments price cheaper), on a 100-node, 10-pair instance.
func BenchmarkColumnGenerationCarry(b *testing.B) {
	cfg := topo.DefaultConfig()
	cfg.Nodes = 100
	net, err := topo.Generate(cfg, xrand.New(4))
	if err != nil {
		b.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 10, xrand.New(5))
	set, err := segment.Build(net, pairs, core.DefaultOptions().Segment)
	if err != nil {
		b.Fatal(err)
	}
	// Eight slots' carry weights: each banks a few segments whose Werner
	// scale in (0, 1] raises their edge's weight above 1.
	rng := xrand.New(6)
	weights := make([][]float64, 8)
	for s := range weights {
		w := make([]float64, len(set.EdgePairs))
		for i := range w {
			w[i] = 1
		}
		for k := 0; k < 12; k++ {
			w[rng.Intn(len(w))] += 0.5 + 0.5*rng.Float64()
		}
		weights[s] = w
	}
	arena := &flow.Arena{}
	solve := func(w []float64) {
		sol, err := flow.Solve(set, flow.Options{SwapWeightedObjective: true, CarryWeights: w, Arena: arena})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Objective <= 0 {
			b.Fatal("degenerate LP")
		}
	}
	solve(weights[0]) // the engine's construction primes the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve(weights[i%len(weights)])
	}
}

// BenchmarkColumnGenerationParallel runs the same solve at several pricing
// worker counts. The results are byte-identical at every count (see
// internal/par); the sub-benchmarks expose how much of the solve the
// parallel pricing rounds can hide on multicore hosts. On a single-core
// host all counts degenerate to the serial path.
func BenchmarkColumnGenerationParallel(b *testing.B) {
	net, pairs := ablationNetwork(b)
	set, err := segment.Build(net, pairs, core.DefaultOptions().Segment)
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	seen := make(map[int]bool, len(counts))
	for _, w := range counts {
		if seen[w] {
			continue
		}
		seen[w] = true
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol, err := flow.Solve(set, flow.Options{SwapWeightedObjective: true, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if sol.Objective <= 0 {
					b.Fatal("degenerate LP")
				}
			}
		})
	}
}

// BenchmarkYenKShortest measures candidate-path enumeration.
func BenchmarkYenKShortest(b *testing.B) {
	net, pairs := ablationNetwork(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if got := graph.YenKShortest(net.G, p.S, p.D, 5, graph.DijkstraOptions{}); len(got) == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkSlotSEE measures one SEE slot (planning cached, rounding +
// physical phase + establishment live).
func BenchmarkSlotSEE(b *testing.B) {
	net, pairs := ablationNetwork(b)
	eng, err := core.NewEngine(net, pairs, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	benchSlots(b, eng)
}

// BenchmarkSlotREPS measures one REPS slot.
func BenchmarkSlotREPS(b *testing.B) {
	net, pairs := ablationNetwork(b)
	eng, err := reps.NewEngine(net, pairs, reps.Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchSlots(b, eng)
}

// BenchmarkSlotGreedy measures one Greedy slot: a plan fixed at
// construction, the physical phase and StitchFixed.
func BenchmarkSlotGreedy(b *testing.B) {
	net, pairs := ablationNetwork(b)
	eng, err := greedy.NewEngine(net, pairs, greedy.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	benchSlots(b, eng)
}

// BenchmarkSlotContend measures one Contend slot: Greedy's phases plus the
// recovery pass over the held plan.
func BenchmarkSlotContend(b *testing.B) {
	net, pairs := ablationNetwork(b)
	eng, err := contend.NewEngine(net, pairs, contend.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	benchSlots(b, eng)
}

// benchSlots times RunSlot on a constructed engine.
func benchSlots(b *testing.B, eng sched.Engine) {
	rng := xrand.New(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunSlot(rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildGreedy measures Greedy's construction-time planning: the
// segment set comes from a primed warm cache, so the timed work is the
// round-robin Dijkstra selection reserving on its ledger.
func BenchmarkBuildGreedy(b *testing.B) {
	opts := greedy.DefaultOptions()
	opts.Warm = warm.New()
	benchBuild(b, func(net *topo.Network, pairs []topo.SDPair) error {
		_, err := greedy.NewEngine(net, pairs, opts)
		return err
	})
}

// BenchmarkBuildContend measures Contend's online planning over a warm
// segment set: Yen candidate paths, then best-first selection re-scoring
// every candidate on the ledger.
func BenchmarkBuildContend(b *testing.B) {
	opts := contend.DefaultOptions()
	opts.Warm = warm.New()
	benchBuild(b, func(net *topo.Network, pairs []topo.SDPair) error {
		_, err := contend.NewEngine(net, pairs, opts)
		return err
	})
}

// BenchmarkBuildQPass measures Contend's offline (Q-PASS-style) planning
// over a warm segment set: one static scoring pass, then all-or-nothing
// round-robin acceptance.
func BenchmarkBuildQPass(b *testing.B) {
	opts := contend.DefaultOptions()
	opts.Offline = true
	opts.Slot.Algorithm = sched.QPass
	opts.Warm = warm.New()
	benchBuild(b, func(net *topo.Network, pairs []topo.SDPair) error {
		_, err := contend.NewEngine(net, pairs, opts)
		return err
	})
}

// benchBuild times an engine constructor on the ablation instance after
// one untimed call that primes its warm cache.
func benchBuild(b *testing.B, build func(*topo.Network, []topo.SDPair) error) {
	net, pairs := ablationNetwork(b)
	if err := build(net, pairs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := build(net, pairs); err != nil {
			b.Fatal(err)
		}
	}
}
