// Command seesim runs one simulation configuration and prints per-slot and
// aggregate throughput for the selected scheduler(s).
//
// Usage:
//
//	seesim -nodes 200 -pairs 20 -slots 1 -trials 20 -alg all
//
// Trials run through the experiment harness (experiment.RunPoint): each
// draws a fresh topology and SD pairs from the seed, and all schedulers
// see identical instances.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"see"
	"see/internal/experiment"
	"see/internal/topo"
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
		workers    = fs.Int("workers", 0, "goroutines for trials, LP pricing rounds and per-pair candidate-path enumeration (0 = GOMAXPROCS, 1 = serial; results are identical at any value)")
		faults     = fs.String("faults", "", "deterministic fault spec, e.g. \"seed=7;node=3@2-5;cut:100,200,50@2-5;brown:4,0.5@1-;flap:2,4,0.5@0-8;decohere=0.05\" (! marks an item as unannounced)")
		faultAware = fs.Bool("fault-aware", false, "plan around announced faults: schemes with a fault-aware variant (see, contend) are swapped for it")
		budget     = fs.Duration("slot-budget", 0, "LP solve budget per scheduler; on timeout the slot degrades to the greedy fallback (0 = unbounded)")
		jsonl      = fs.String("trace-jsonl", "", "stream every pipeline event as JSON lines to this file (trials then run one at a time, in order; results are identical at any -workers)")
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
	// usage reports a bad flag value: exit 2, before any work.
	usage := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 2
	}

	algs, err := parseAlgs(*alg)
	if err != nil {
		return usage(err)
	}
	if *faultAware {
		algs = faultAwareAlgs(algs)
	}

	// Counts below 1 and a negative (or NaN) probability or attenuation
	// are usage errors, caught before any instance is drawn.
	for _, f := range []struct {
		name string
		v    int
	}{{"nodes", *nodes}, {"pairs", *pairs}, {"channels", *channels}, {"memory", *memory}, {"trials", *trials}, {"slots", *slots}} {
		if f.v < 1 {
			return usage(fmt.Errorf("seesim: -%s %d must be at least 1", f.name, f.v))
		}
	}
	if !(*swap >= 0) {
		return usage(fmt.Errorf("seesim: -swap %v must be at least 0", *swap))
	}
	if !(*alpha >= 0) {
		return usage(fmt.Errorf("seesim: -alpha %v must be at least 0", *alpha))
	}
	nsfnet, err := parseTopo(*topoName)
	if err != nil {
		return usage(err)
	}
	pattern, err := parseTraffic(*traffic)
	if err != nil {
		return usage(err)
	}

	var plan *see.FaultPlan
	if *faults != "" {
		plan, err = see.ParseFaultSpec(*faults)
		if err != nil {
			return usage(err)
		}
	}
	var floors *see.FloorSpec
	if *floorSpec != "" {
		floors, err = see.ParseFloorSpec(*floorSpec)
		if err != nil {
			return usage(err)
		}
	}
	order, err := see.ParseSwapOrder(*swapOrder)
	if err != nil {
		return usage(err)
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

	network := topo.DefaultConfig()
	network.Nodes, network.Channels, network.Memory = *nodes, *channels, *memory
	network.SwapProb, network.Alpha = *swap, *alpha
	p := experiment.Params{
		Network: network, NSFNET: nsfnet, Traffic: pattern, SDPairs: *pairs,
		Trials: *trials, BaseSeed: *seed, Slots: *slots, Algorithms: algs,
		Config: see.SchedulerOptions{
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
		},
	}
	if *serveMode {
		return runServe(serveParams{
			Params: p, topoName: *topoName, traffic: *traffic,
			trace: *trace, jsonl: jsonlTracer,
			arrivals: *arrivals, ckptDir: *ckptDir, ckptEvery: *ckptEvery,
			resume: *resume, dieAt: *dieAt,
		}, stdout, stderr)
	}

	tracers := make(map[see.Algorithm]*see.CountingTracer, len(algs))
	p.Tracers = make(map[see.Algorithm]see.Tracer, len(algs))
	for _, a := range algs {
		tracers[a] = see.NewCountingTracer()
		var ts []see.Tracer
		if *trace || countInjected {
			ts = append(ts, tracers[a])
		}
		if jsonlTracer != nil {
			ts = append(ts, jsonlTracer)
		}
		p.Tracers[a] = see.MultiTracer(ts...)
	}
	if jsonlTracer != nil {
		// One worker runs the trials in order, so the event stream is in
		// trial order too.
		p.Workers = 1
	}
	res, err := experiment.RunPoint(p)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	report(stdout, reportParams{
		Params: p, topoName: *topoName, traffic: *traffic,
		trace: *trace, countInjected: countInjected, faults: *faults,
		floorSpec: *floorSpec, res: res, tracers: tracers,
	})
	return 0
}

// reportParams carries the run configuration and results into report.
type reportParams struct {
	experiment.Params    // the run's configuration
	topoName, traffic    string
	trace, countInjected bool
	faults               string
	// floorSpec is the raw -fidelity-floor flag; non-empty enables the
	// fidelity section (even for an all-zero spec, which reports delivered
	// fidelity without enforcing anything).
	floorSpec string
	res       map[see.Algorithm]experiment.PointResult
	tracers   map[see.Algorithm]*see.CountingTracer
}

// report prints the run summary: the configuration header, the throughput
// table, and — when tracing or robustness features are active — the
// pipeline counters and incident lines.
func report(w io.Writer, p reportParams) {
	fmt.Fprintf(w, "# topo=%s traffic=%s, %d SD pairs, %d channels, %d memory, q=%.2f, alpha=%.1e\n",
		strings.ToLower(p.topoName), strings.ToLower(p.traffic), p.SDPairs, p.Network.Channels, p.Network.Memory,
		p.Network.SwapProb, p.Network.Alpha)
	if !p.NSFNET {
		fmt.Fprintf(w, "# %d nodes\n", p.Network.Nodes)
	}
	fmt.Fprintf(w, "# %d trials x %d slots\n", p.Trials, p.Slots)
	fmt.Fprintf(w, "%-7s %-18s %-14s\n", "alg", "throughput(qbps)", "LP bound/slot")
	for _, a := range p.Algorithms {
		fmt.Fprintf(w, "%-7s %-18.3f %-14.3f\n", a, p.res[a].Throughput.Mean, p.res[a].UpperBound)
	}
	// With the oracle in the selection, quote every real scheme's
	// throughput as a fraction of the network's expected entanglement
	// capacity (the oracle's mean UpperBound; see internal/oracle).
	if oracle, ok := p.res[see.Oracle]; ok && oracle.UpperBound > 0 {
		fmt.Fprintf(w, "\n# capacity (oracle expected bound = %.3f/slot)\n", oracle.UpperBound)
		for _, a := range p.Algorithms {
			if a == see.Oracle {
				continue
			}
			fmt.Fprintf(w, "%-7s %5.1f%% of capacity\n", a, 100*p.res[a].Throughput.Mean/oracle.UpperBound)
		}
	}
	// The fidelity section follows the -fidelity-floor flag, not the
	// floors' strength: "-fidelity-floor 0" reports delivered fidelity
	// while enforcing nothing.
	if p.floorSpec != "" {
		fmt.Fprintf(w, "\n# fidelity (floor=%q swap-order=%s)\n", p.floorSpec, p.SwapOrder)
		for _, a := range p.Algorithms {
			if a == see.Oracle {
				continue
			}
			s := p.res[a].Fidelity
			if s.N == 0 {
				fmt.Fprintf(w, "%-7s delivered=0\n", a)
				continue
			}
			fmt.Fprintf(w, "%-7s delivered=%d p50=%.4f mean=%.4f min=%.4f\n",
				a, s.N, s.MedianApprox, s.Mean, s.Min)
		}
	}
	if p.trace {
		for _, a := range p.Algorithms {
			fmt.Fprintf(w, "\n# %v pipeline\n%s\n", a, p.tracers[a])
		}
	}
	if p.countInjected {
		// The bank incident kinds print only under -carry so fault-only
		// runs keep bank-free incident lines.
		if p.CarryOver {
			fmt.Fprintf(w, "\n# incidents (faults=%q slot-budget=%v carry=%d-slot)\n", p.faults, p.SlotBudget, p.DecoherenceSlots)
		} else {
			fmt.Fprintf(w, "\n# incidents (faults=%q slot-budget=%v)\n", p.faults, p.SlotBudget)
		}
		for _, a := range p.Algorithms {
			c := p.tracers[a].Counts()
			fmt.Fprintf(w, "%-7v", a)
			for k := see.Incident(0); k < see.Incident(len(c.Incidents)); k++ {
				if !p.CarryOver && isBankIncident(k) {
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

// parseTopo reports whether -topo names the NSFNET backbone (true) or a
// Waxman graph (false).
func parseTopo(s string) (nsfnet bool, err error) {
	switch strings.ToLower(s) {
	case "waxman":
		return false, nil
	case "nsfnet":
		return true, nil
	default:
		return false, fmt.Errorf("seesim: unknown -topo %q (want waxman or nsfnet)", s)
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
