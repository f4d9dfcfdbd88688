// Command seesim runs one simulation configuration and prints per-slot and
// aggregate throughput for the selected scheduler(s).
//
// Usage:
//
//	seesim -nodes 200 -pairs 20 -slots 1 -trials 20 -alg all
//
// Each trial draws a fresh topology and SD pairs from the seed; all
// schedulers see identical instances.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"see"
	"see/internal/metrics"
	"see/internal/xrand"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected: it parses args, runs the
// simulation and writes reports to stdout and diagnostics to stderr,
// returning the process exit code. The golden-file tests drive it directly.
// The code is a named return so deferred cleanup (the JSONL tracer close,
// whose flush can be the first point a disk-full error surfaces) can fail
// the process instead of only logging.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("seesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes      = fs.Int("nodes", 200, "number of quantum nodes")
		pairs      = fs.Int("pairs", 20, "number of SD pairs")
		channels   = fs.Int("channels", 3, "quantum channels per link")
		memory     = fs.Int("memory", 10, "quantum memory per node")
		swap       = fs.Float64("swap", 0.9, "quantum swapping success probability")
		alpha      = fs.Float64("alpha", 2e-4, "attenuation parameter in p = exp(-alpha*l)+delta")
		trials     = fs.Int("trials", 10, "independent trials (topology redrawn each)")
		slots      = fs.Int("slots", 1, "time slots per trial")
		seed       = fs.Int64("seed", 1, "base random seed")
		alg        = fs.String("alg", "all", "scheduler: see, reps, e2e, greedy, contend, qpass, see-aware, contend-aware, a comma-separated list, or all")
		topoName   = fs.String("topo", "waxman", "topology: waxman or nsfnet")
		traffic    = fs.String("traffic", "uniform", "SD pair pattern: uniform, hotspot or gravity")
		trace      = fs.Bool("trace", false, "print per-scheduler pipeline phase counters after the run")
		workers    = fs.Int("workers", 0, "goroutines for LP pricing rounds and per-pair candidate-path enumeration (0 = GOMAXPROCS, 1 = serial; results are identical at any value)")
		faults     = fs.String("faults", "", "deterministic fault spec, e.g. \"seed=7;node=3@2-5;cut:100,200,50@2-5;brown:4,0.5@1-;flap:2,4,0.5@0-8;decohere=0.05\" (! marks an item as unannounced)")
		faultAware = fs.Bool("fault-aware", false, "plan around announced faults: schemes with a fault-aware variant (see, contend) are swapped for it")
		budget     = fs.Duration("slot-budget", 0, "LP solve budget per scheduler; on timeout the slot degrades to the greedy fallback (0 = unbounded)")
		jsonl      = fs.String("trace-jsonl", "", "stream every pipeline event as JSON lines to this file")
		carry      = fs.Bool("carry", false, "carry unconsumed entanglement segments across slots in node memories (cross-slot state bank)")
		decohere   = fs.Int("decohere-slots", 1, "with -carry: slot boundaries a banked segment survives before decohering")
		floorSpec  = fs.String("fidelity-floor", "", "per-request minimum delivered fidelity, e.g. \"0.8;3=0.95\" (default floor plus pair=floor overrides; empty = no floors, also enables the fidelity report)")
		swapOrder  = fs.String("swap-order", "path", "junction swap sampling order: path (source to destination) or greedy (least reliable junction first)")
		carryLP    = fs.Bool("carry-aware-lp", false, "with -carry: re-price the provisioning LP on slots that withdrew banked segments, so edges covered by carried inventory price cheaper")
		retention  = fs.Float64("carry-retention", 0, "with -carry: per-slot-boundary Werner-parameter retention of banked segments in (0,1); 0 or 1 disables aging")
		minScale   = fs.Float64("carry-min-scale", 0, "with -carry: minimum decayed Werner scale below which a banked segment stops substituting for planned attempts")

		serveMode = fs.Bool("serve", false, "service mode: run one long-lived instance where an arrival process generates per-user requests with QoS classes and deadlines (-trials is ignored)")
		arrivals  = fs.String("arrivals", "poisson;rate=2", "service-mode arrival spec, e.g. \"poisson;rate=3;users=200;mix=0.2/0.3/0.5;deadline=4/8/16;max-active=64\"")
		ckptDir   = fs.String("ckpt-dir", "", "service mode: write per-scheduler checkpoints (a header line plus the JSON state) to this directory")
		ckptEvery = fs.Int("ckpt-every", 100, "service mode: with -ckpt-dir, checkpoint every N slots (a final checkpoint is always written)")
		resume    = fs.Bool("resume", false, "service mode: resume from the checkpoints in -ckpt-dir and run to -slots")
		dieAt     = fs.Int("die-at", -1, "service mode: exit abruptly (code 3) after this slot, skipping the final checkpoint — crash simulation for resume tests (-1 = never)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	algs, err := parseAlgs(*alg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *faultAware {
		algs = faultAwareAlgs(algs)
	}

	if err := checkNetworkFlags(*nodes, *channels, *memory, *swap, *alpha); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg := see.DefaultNetworkConfig()
	cfg.Nodes = *nodes
	cfg.Channels = *channels
	cfg.Memory = *memory
	// Flag value 0 is an explicit request (the config's zero value would
	// silently fall back to the paper default).
	cfg.SwapProb = explicitFloat(*swap)
	cfg.Alpha = explicitFloat(*alpha)

	pattern, err := parseTraffic(*traffic)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var plan *see.FaultPlan
	if *faults != "" {
		plan, err = see.ParseFaultSpec(*faults)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	var floors *see.FloorSpec
	if *floorSpec != "" {
		floors, err = see.ParseFloorSpec(*floorSpec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	order, err := see.ParseSwapOrder(*swapOrder)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// Fault injection, slot budgets, carry-over and fidelity floors report
	// through the tracer, so any of those flags implies counters even
	// without -trace.
	countInjected := plan != nil || *budget > 0 || *carry || floors != nil
	var jsonlTracer *see.JSONLTracer
	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		jsonlTracer = see.NewJSONLTracer(f)
		defer func() {
			// A buffered trace stream can first surface write errors at
			// the final flush; a silently truncated trace must not exit 0.
			if err := jsonlTracer.Close(); err != nil {
				fmt.Fprintf(stderr, "trace-jsonl: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	// The scheduler options every scheduler of the run is built with; each
	// one only gets its own Tracer.
	opts := see.SchedulerOptions{
		Workers:              *workers,
		Faults:               plan,
		SlotBudget:           *budget,
		CarryOver:            *carry,
		DecoherenceSlots:     *decohere,
		FidelityFloors:       floors,
		SwapOrder:            order,
		CarryAwareLP:         *carryLP,
		CarryWernerRetention: *retention,
		CarryMinWernerScale:  *minScale,
	}
	if *serveMode {
		// Service mode has one topology, so one cache serves the run: the
		// schedulers share their candidate sets and LP solutions.
		opts.Warm = see.NewWarmCache()
		return runServe(serveParams{
			algs: algs, cfg: cfg, pairs: *pairs, topoName: *topoName,
			pattern: pattern, traffic: *traffic, slots: *slots, seed: *seed,
			opts: opts, trace: *trace, jsonl: jsonlTracer,
			arrivals: *arrivals, ckptDir: *ckptDir, ckptEvery: *ckptEvery,
			resume: *resume, dieAt: *dieAt,
		}, stdout, stderr)
	}

	totals := make(map[see.Algorithm]float64, len(algs))
	bounds := make(map[see.Algorithm]float64, len(algs))
	tracers := make(map[see.Algorithm]*see.CountingTracer, len(algs))
	fids := make(map[see.Algorithm][]float64, len(algs))
	for _, a := range algs {
		tracers[a] = see.NewCountingTracer()
	}
	slotCount := 0
	for trial := 0; trial < *trials; trial++ {
		trialSeed := *seed + int64(trial)
		net, sdPairs, err := buildInstance(*topoName, cfg, *pairs, pattern, trialSeed)
		if err != nil {
			fmt.Fprintf(stderr, "trial %d: %v\n", trial, err)
			return 1
		}
		// Each trial draws a new topology, so it gets its own warm cache:
		// its schedulers share what they build, and nothing outlives the
		// trial (a finished trial's entries could never hit again).
		warm := see.NewWarmCache()
		for _, a := range algs {
			o := opts
			o.Warm = warm
			var ts []see.Tracer
			if *trace || countInjected {
				ts = append(ts, tracers[a])
			}
			if jsonlTracer != nil {
				ts = append(ts, jsonlTracer)
			}
			if len(ts) > 0 {
				o.Tracer = see.MultiTracer(ts...)
			}
			sc, err := see.NewScheduler(a, net, sdPairs, &o)
			if err != nil {
				fmt.Fprintf(stderr, "trial %d (%v): %v\n", trial, a, err)
				return 1
			}
			rng := xrand.ForTrial(trialSeed, 1000)
			for s := 0; s < *slots; s++ {
				res, err := sc.RunSlot(rng)
				if err != nil {
					fmt.Fprintf(stderr, "trial %d (%v): %v\n", trial, a, err)
					return 1
				}
				totals[a] += float64(res.Established)
				if floors != nil {
					for _, c := range res.Connections {
						fids[a] = append(fids[a], c.Fidelity)
					}
				}
			}
			// Read the bound after the slots: under -slot-budget the LP is
			// built lazily inside the first slot, so the bound is 0 before.
			bounds[a] += sc.UpperBound()
		}
		slotCount += *slots
	}

	report(stdout, reportParams{
		algs: algs, nodes: *nodes, pairs: *pairs, channels: *channels,
		memory: *memory, swap: *swap, alpha: *alpha, trials: *trials,
		slots: *slots, slotCount: slotCount, topoName: *topoName,
		traffic: *traffic, trace: *trace, countInjected: countInjected,
		faults: *faults, budget: *budget, carry: *carry, decohere: *decohere,
		totals: totals, bounds: bounds, tracers: tracers,
		floorSpec: *floorSpec, swapOrder: order, fids: fids,
	})
	return 0
}

// reportParams carries the run configuration and results into report.
type reportParams struct {
	algs                           []see.Algorithm
	nodes, pairs, channels, memory int
	swap, alpha                    float64
	trials, slots, slotCount       int
	topoName, traffic              string
	trace, countInjected, carry    bool
	faults                         string
	budget                         time.Duration
	decohere                       int
	totals, bounds                 map[see.Algorithm]float64
	tracers                        map[see.Algorithm]*see.CountingTracer
	// floorSpec is the raw -fidelity-floor flag; non-empty enables the
	// fidelity section (even for an all-zero spec, which reports delivered
	// fidelity without enforcing anything).
	floorSpec string
	swapOrder see.SwapOrder
	fids      map[see.Algorithm][]float64
}

// report prints the run summary: the configuration header, the throughput
// table, and — when tracing or robustness features are active — the
// pipeline counters and incident lines.
func report(w io.Writer, p reportParams) {
	fmt.Fprintf(w, "# topo=%s traffic=%s, %d SD pairs, %d channels, %d memory, q=%.2f, alpha=%.1e\n",
		strings.ToLower(p.topoName), strings.ToLower(p.traffic), p.pairs, p.channels, p.memory, p.swap, p.alpha)
	if strings.EqualFold(p.topoName, "waxman") {
		fmt.Fprintf(w, "# %d nodes\n", p.nodes)
	}
	fmt.Fprintf(w, "# %d trials x %d slots\n", p.trials, p.slots)
	fmt.Fprintf(w, "%-7s %-18s %-14s\n", "alg", "throughput(qbps)", "LP bound/slot")
	for _, a := range p.algs {
		fmt.Fprintf(w, "%-7s %-18.3f %-14.3f\n",
			a, p.totals[a]/float64(p.slotCount), p.bounds[a]/float64(p.trials))
	}
	// With the oracle in the selection, quote every real scheme's
	// throughput as a fraction of the network's expected entanglement
	// capacity (the oracle's per-trial UpperBound; see internal/oracle).
	if capacity, ok := p.bounds[see.Oracle]; ok && capacity > 0 && p.slotCount > 0 {
		perSlot := capacity / float64(p.trials)
		fmt.Fprintf(w, "\n# capacity (oracle expected bound = %.3f/slot)\n", perSlot)
		for _, a := range p.algs {
			if a == see.Oracle {
				continue
			}
			fmt.Fprintf(w, "%-7s %5.1f%% of capacity\n", a, 100*p.totals[a]/float64(p.slotCount)/perSlot)
		}
	}
	// The fidelity section follows the -fidelity-floor flag, not the
	// floors' strength: "-fidelity-floor 0" reports delivered fidelity
	// while enforcing nothing.
	if p.floorSpec != "" {
		fmt.Fprintf(w, "\n# fidelity (floor=%q swap-order=%s)\n", p.floorSpec, p.swapOrder)
		for _, a := range p.algs {
			if a == see.Oracle {
				continue
			}
			s := metrics.Summarize(p.fids[a])
			if s.N == 0 {
				fmt.Fprintf(w, "%-7s delivered=0\n", a)
				continue
			}
			fmt.Fprintf(w, "%-7s delivered=%d p50=%.4f mean=%.4f min=%.4f\n",
				a, s.N, s.MedianApprox, s.Mean, s.Min)
		}
	}
	if p.trace {
		for _, a := range p.algs {
			fmt.Fprintf(w, "\n# %v pipeline\n%s\n", a, p.tracers[a])
		}
	}
	if p.countInjected {
		// The bank incident kinds print only under -carry so fault-only
		// runs keep bank-free incident lines.
		if p.carry {
			fmt.Fprintf(w, "\n# incidents (faults=%q slot-budget=%v carry=%d-slot)\n", p.faults, p.budget, p.decohere)
		} else {
			fmt.Fprintf(w, "\n# incidents (faults=%q slot-budget=%v)\n", p.faults, p.budget)
		}
		for _, a := range p.algs {
			c := p.tracers[a].Counts()
			fmt.Fprintf(w, "%-7v", a)
			for k := see.Incident(0); k < see.Incident(len(c.Incidents)); k++ {
				if !p.carry && isBankIncident(k) {
					continue
				}
				if p.floorSpec == "" && isFloorIncident(k) {
					continue
				}
				fmt.Fprintf(w, " %s=%d", k, c.IncidentCount(k))
			}
			fmt.Fprintln(w)
		}
	}
}

// isBankIncident reports whether the kind fires only with the carry-over
// bank enabled (those lines are suppressed in bank-less runs).
func isBankIncident(k see.Incident) bool {
	return k == see.IncidentBankWithdraw || k == see.IncidentBankDeposit || k == see.IncidentBankDecohered
}

// isFloorIncident reports whether the kind fires only with fidelity floors
// configured (suppressed in floor-less runs, like the bank kinds).
func isFloorIncident(k see.Incident) bool {
	return k == see.IncidentFloorReject
}

// checkNetworkFlags rejects the network flag values NetworkConfig would
// silently resolve to something else — a count below 1 to the paper
// default, a negative (or NaN) probability or attenuation to zero or the
// default — so the report header always shows the values the run used.
func checkNetworkFlags(nodes, channels, memory int, swap, alpha float64) error {
	switch {
	case nodes < 1:
		return fmt.Errorf("seesim: -nodes %d must be at least 1", nodes)
	case channels < 1:
		return fmt.Errorf("seesim: -channels %d must be at least 1", channels)
	case memory < 1:
		return fmt.Errorf("seesim: -memory %d must be at least 1", memory)
	case !(swap >= 0):
		return fmt.Errorf("seesim: -swap %v must be at least 0", swap)
	case !(alpha >= 0):
		return fmt.Errorf("seesim: -alpha %v must be at least 0", alpha)
	}
	return nil
}

// explicitFloat maps a flag value of 0 to see.ExplicitZero so that
// "-swap 0" and "-alpha 0" override the paper default instead of
// silently re-selecting it.
func explicitFloat(v float64) float64 {
	if v == 0 {
		return see.ExplicitZero
	}
	return v
}

// buildInstance draws one trial's topology and demand set.
func buildInstance(topoName string, cfg see.NetworkConfig, pairs int, pattern see.Traffic, seed int64) (*see.Network, []see.SDPair, error) {
	switch strings.ToLower(topoName) {
	case "waxman":
		if pattern == see.TrafficUniform {
			return see.GenerateNetwork(cfg, pairs, seed)
		}
		net, _, err := see.GenerateNetwork(cfg, 0, seed)
		if err != nil {
			return nil, nil, err
		}
		return net, see.ChoosePairsWithTraffic(net, pairs, pattern, seed+1), nil
	case "nsfnet":
		net, err := see.NSFNETNetwork(cfg, seed)
		if err != nil {
			return nil, nil, err
		}
		return net, see.ChoosePairsWithTraffic(net, pairs, pattern, seed+1), nil
	default:
		return nil, nil, fmt.Errorf("seesim: unknown -topo %q (want waxman or nsfnet)", topoName)
	}
}

func parseTraffic(s string) (see.Traffic, error) {
	switch strings.ToLower(s) {
	case "uniform":
		return see.TrafficUniform, nil
	case "hotspot":
		return see.TrafficHotspot, nil
	case "gravity":
		return see.TrafficGravity, nil
	default:
		return 0, fmt.Errorf("seesim: unknown -traffic %q (want uniform, hotspot or gravity)", s)
	}
}

// faultAwareAlgs swaps every scheme for its fault-aware variant where one
// exists (see -> see-aware, contend -> contend-aware; everything else is
// kept as-is), deduplicating in case the selection already named the
// variant.
func faultAwareAlgs(algs []see.Algorithm) []see.Algorithm {
	out := make([]see.Algorithm, 0, len(algs))
	seen := make(map[see.Algorithm]bool, len(algs))
	for _, a := range algs {
		if v, ok := a.FaultAwareVariant(); ok {
			a = v
		}
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// parseAlgs accepts "all", one scheme name, or a comma-separated list;
// names are resolved by the scheduler layer itself, so a new scheme needs
// no change here.
func parseAlgs(s string) ([]see.Algorithm, error) {
	if strings.EqualFold(strings.TrimSpace(s), "all") {
		return append([]see.Algorithm(nil), see.Algorithms...), nil
	}
	parts := strings.Split(s, ",")
	algs := make([]see.Algorithm, 0, len(parts))
	for _, part := range parts {
		a, err := see.ParseAlgorithm(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("seesim: -alg %q: %w; also accepted: a comma-separated list, or \"all\"", s, err)
		}
		algs = append(algs, a)
	}
	return algs, nil
}
