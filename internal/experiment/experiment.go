// Package experiment is the benchmark harness that regenerates the paper's
// evaluation (Figs. 2–7): parameter sweeps over link capacity, segment
// success probability, swap success probability, network scale and
// workload, with throughput means across trials and per-SD-pair CDFs.
//
// Every trial draws its own topology and SD pairs from the trial seed, runs
// each scheduler on the *same* instance (paired comparison), and records the
// established connections. A trial runs Params.Slots consecutive time slots
// per scheduler (default 1, the paper's setting) and reports per-slot
// throughput; the embedded Config's CarryOver additionally banks unconsumed
// segments across those slots (see internal/state).
package experiment

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"see/internal/engines"
	"see/internal/metrics"
	"see/internal/par"
	"see/internal/sched"
	"see/internal/topo"
	"see/internal/warm"
	"see/internal/xrand"
)

// Algorithm selects a scheduler; it is the canonical sched.Algorithm.
type Algorithm = sched.Algorithm

// Params describes one simulation configuration (defaults follow §IV-A).
// Every trial draws its instance with Instance; the scheduler options are
// the embedded engines.Config, which every engine of every trial is built
// with.
type Params struct {
	// Network is the topology every trial generates (topo.Generate), or
	// with NSFNET the resources of the fixed backbone.
	Network topo.Config
	// NSFNET replaces the Waxman draw with the 14-node NSFNET backbone
	// (topo.NSFNet) carrying Network's resources.
	NSFNET bool
	// Traffic is the pattern SD pairs are drawn under (the paper's
	// uniform sampling by default).
	Traffic topo.TrafficPattern
	// SDPairs is the demand drawn per trial.
	SDPairs int

	// Trials per data point (paper: 100).
	Trials int
	// BaseSeed drives all randomness; trial t uses xrand.ForTrial.
	BaseSeed int64
	// Slots is the number of consecutive time slots each trial runs per
	// algorithm (default 1, the paper's single-slot evaluation). The
	// reported throughput is established connections per slot, so
	// single-slot and multi-slot points are directly comparable.
	Slots int
	// Algorithms selects the schemes each trial runs and compares. nil
	// means the paper's trio (SEE, REPS, E2E); extend it with sched.Greedy
	// or sched.Contend to sweep the repo-grown baselines on the same
	// instances.
	Algorithms []Algorithm
	// Tracers gives an algorithm's engines a tracer (none for an absent
	// key). A tracer observes its algorithm in every trial, and trials run
	// concurrently, so it must be safe for concurrent use
	// (sched.CountingTracer is); with Workers 1 it sees the trials in
	// order.
	Tracers map[Algorithm]sched.Tracer

	// Config is every engine's scheduler options. Its Workers also bounds
	// the goroutines running trials concurrently; trials are seeded
	// independently and the pricing parallelism is deterministic, so
	// results are byte-identical at any worker count. Each engine gets its
	// own injector from Faults, so trials stay independently seeded. Its
	// Tracer and Warm must be nil: Tracers carries the tracers, and
	// RunPoint gives every trial its own warm cache.
	engines.Config
}

// DefaultParams returns the paper's default setting.
func DefaultParams() Params {
	return Params{
		Network:  topo.DefaultConfig(),
		SDPairs:  20,
		Trials:   100,
		BaseSeed: 20220101,
	}
}

// Validate checks the parameter set before any trial spends work. It is
// called by RunPoint (and therefore by every figure sweep), so a typo'd
// configuration — a negative slot count, an unregistered algorithm — fails
// fast with a named field instead of panicking mid-sweep or silently
// producing a degenerate run. The network is checked by
// topo.Config.Validate and the scheduler options by
// engines.Config.Validate, the same rules topology generation and every
// engine construction apply.
func (p Params) Validate() error {
	switch {
	case p.Trials <= 0:
		return fmt.Errorf("experiment: Trials must be positive, got %d", p.Trials)
	case p.Slots < 0:
		return fmt.Errorf("experiment: negative Slots %d", p.Slots)
	case p.SDPairs < 0:
		return fmt.Errorf("experiment: negative SDPairs %d", p.SDPairs)
	case p.Config.Tracer != nil:
		return errors.New("experiment: Config.Tracer is set; give tracers per algorithm in Params.Tracers")
	case p.Config.Warm != nil:
		return errors.New("experiment: Config.Warm is set; RunPoint gives every trial its own warm cache")
	}
	if err := p.Network.Validate(); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	for _, alg := range p.Algorithms {
		if !engines.Registered(alg) {
			return fmt.Errorf("experiment: unknown algorithm %v", alg)
		}
	}
	return p.Config.Validate()
}

// algorithms returns the schemes this run compares (the paper trio when
// Params.Algorithms is nil).
func (p Params) algorithms() []Algorithm {
	if len(p.Algorithms) > 0 {
		return p.Algorithms
	}
	return sched.Algorithms
}

// PointResult aggregates one (configuration, algorithm) data point.
type PointResult struct {
	// Throughput summarizes established connections per slot over trials
	// (the y-axis of every (a) subplot).
	Throughput metrics.Summary
	// PerPairCDF is the per-SD-pair throughput distribution of the first
	// trial, as in the paper's (b)/(c) subplots.
	PerPairCDF metrics.CDF
	// Jain is the mean Jain fairness index over trials.
	Jain float64
	// UpperBound is the mean over trials of the engine's UpperBound, read
	// after its slots (under a slot budget the LP is built lazily inside
	// the first slot).
	UpperBound float64
	// Fidelity summarizes the delivered fidelity of every connection the
	// algorithm established, over all trials and slots in order.
	Fidelity metrics.Summary
}

// trialOutcome is one trial's result for every algorithm.
type trialOutcome struct {
	algs map[Algorithm]algTrial
	err  error
}

// algTrial is one algorithm's result in one trial.
type algTrial struct {
	established float64   // connections per slot
	perPair     []float64 // connections per slot of each SD pair
	bound       float64   // the engine's UpperBound after its slots
	fidelities  []float64 // delivered fidelities in slot order
}

// RunPoint simulates all algorithms on the same instances and returns one
// PointResult per algorithm. Trials run on up to Workers goroutines
// (par.For); every trial derives all of its randomness from its own seed,
// so the output is byte-identical to a serial run.
func RunPoint(p Params) (map[Algorithm]PointResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	outcomes := make([]trialOutcome, p.Trials)
	par.For(p.Workers, p.Trials, func(trial int) { outcomes[trial] = p.runTrial(trial) })
	for trial, oc := range outcomes {
		if oc.err != nil {
			return nil, fmt.Errorf("experiment: trial %d: %w", trial, oc.err)
		}
	}

	out := make(map[Algorithm]PointResult)
	for _, alg := range p.algorithms() {
		var established, jains, fidelities []float64
		bound := 0.0
		for _, oc := range outcomes {
			at := oc.algs[alg]
			established = append(established, at.established)
			jains = append(jains, metrics.JainIndex(at.perPair))
			bound += at.bound
			fidelities = append(fidelities, at.fidelities...)
		}
		out[alg] = PointResult{
			Throughput: metrics.Summarize(established),
			PerPairCDF: metrics.NewCDF(outcomes[0].algs[alg].perPair),
			Jain:       metrics.Summarize(jains).Mean,
			UpperBound: bound / float64(p.Trials),
			Fidelity:   metrics.Summarize(fidelities),
		}
	}
	return out, nil
}

// Instance draws one trial's network and SD pairs from rng: the topology
// from rng's first Split (a Waxman graph from Network, or NSFNET with
// Network's resources and its δ seed drawn from that stream) and SDPairs
// pairs under Traffic from its second. For a Waxman graph with uniform
// traffic this is see.GenerateNetwork's recipe.
func (p Params) Instance(rng *rand.Rand) (*topo.Network, []topo.SDPair, error) {
	topoRng := xrand.Split(rng)
	pairRng := xrand.Split(rng)
	var net *topo.Network
	var err error
	if p.NSFNET {
		net, err = topo.NSFNet(p.Network, topoRng.Int63())
	} else {
		net, err = topo.Generate(p.Network, topoRng)
	}
	if err != nil {
		return nil, nil, err
	}
	traffic := topo.TrafficConfig{Pattern: p.Traffic, Hub: -1}
	return net, topo.ChooseSDPairsWithTraffic(net, p.SDPairs, traffic, pairRng), nil
}

// runTrial draws one instance and runs every algorithm's slots on it.
func (p Params) runTrial(trial int) trialOutcome {
	algs := p.algorithms()
	oc := trialOutcome{algs: make(map[Algorithm]algTrial, len(algs))}
	rng := xrand.ForTrial(p.BaseSeed, trial)
	net, pairs, err := p.Instance(rng)
	if err != nil {
		oc.err = err
		return oc
	}
	// The slot streams follow the instance's, one per Algorithm value, so
	// an algorithm's stream does not depend on the rest of the selection.
	streams := make([]*rand.Rand, slices.Max(algs)+1)
	for i := range streams {
		streams[i] = xrand.Split(rng)
	}
	// Every engine of the trial is built over the same instance, so they
	// share one warm cache; nothing in it could hit in another trial.
	cfg := p.Config
	cfg.Warm = warm.New()
	slots := max(p.Slots, 1)
	for _, alg := range algs {
		cfg.Tracer = p.Tracers[alg]
		eng, err := engines.New(alg, net, pairs, cfg)
		if err != nil {
			oc.err = fmt.Errorf("%v: %w", alg, err)
			return oc
		}
		at := algTrial{perPair: make([]float64, len(pairs))}
		for s := 0; s < slots; s++ {
			res, err := eng.RunSlot(streams[alg])
			if err != nil {
				oc.err = fmt.Errorf("%v: %w", alg, err)
				return oc
			}
			at.established += float64(res.Established)
			for i, c := range res.PerPair {
				at.perPair[i] += float64(c)
			}
			for _, c := range res.Connections {
				at.fidelities = append(at.fidelities, c.Fidelity)
			}
		}
		// Per-slot averages of exact integer sums: a single-slot point is
		// its integer count.
		at.established /= float64(slots)
		for i := range at.perPair {
			at.perPair[i] /= float64(slots)
		}
		at.bound = eng.UpperBound()
		oc.algs[alg] = at
	}
	return oc
}
