// Package see is the public API of the SEE reproduction — Segmented
// Entanglement Establishment for Throughput Maximization in Quantum
// Networks (Zhao et al., IEEE ICDCS 2022).
//
// The package wraps the internal engine stack behind a small surface:
//
//	net, pairs, _ := see.GenerateNetwork(see.DefaultNetworkConfig(), 20, 1)
//	sched, _ := see.NewScheduler(see.SEE, net, pairs, nil)
//	res, _ := sched.RunSlot(rand.New(rand.NewSource(1)))
//	fmt.Println("established:", res.Established)
//
// The paper's three schedulers are available — SEE (its contribution),
// REPS (the INFOCOM'21 entanglement-link baseline) and E2E (all-optical
// switching only) — plus the repo-grown baselines Greedy (non-LP),
// Contend (Q-CAST-style contention-aware routing), QPass (its offline
// contrast), the fault-aware SEE-Aware and Contend-Aware, and the Oracle
// capacity bound. The experiment harness is exposed one data point at a
// time via RunExperiment; cmd/seefig regenerates the paper's figures.
// SchedulerOptions.Faults injects deterministic faults (see
// ParseFaultSpec) and SchedulerOptions.SlotBudget bounds the LP solve,
// degrading gracefully to Greedy when exceeded.
package see

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"see/internal/chaos"
	"see/internal/engines"
	"see/internal/experiment"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/serve"
	"see/internal/state"
	"see/internal/topo"
	"see/internal/warm"
	"see/internal/xrand"
)

// Algorithm selects an entanglement-establishment scheme. It is the
// canonical sched.Algorithm shared by every layer of the simulator.
type Algorithm = sched.Algorithm

// The schemes compared in the paper's evaluation, plus the Greedy
// fallback and the Oracle bound. The other repo-grown schemes (Contend,
// QPass, SEE-Aware, Contend-Aware) are selected by name through
// ParseAlgorithm.
const (
	// SEE integrates all-optical switching with quantum swapping
	// (the paper's contribution).
	SEE = sched.SEE
	// REPS uses entanglement links only (Zhao & Qiao, INFOCOM 2021).
	REPS = sched.REPS
	// E2E uses all-optical switching only: one segment per connection.
	E2E = sched.E2E
	// Greedy is the repo-grown non-LP baseline: round-robin shortest-path
	// planning with first-come-first-served reservation. It doubles as the
	// degradation target when an LP scheduler blows its SlotBudget.
	Greedy = sched.Greedy
	// Oracle is the capacity-bound pseudo-scheduler: it establishes
	// nothing and consumes no randomness, but its UpperBound is the
	// network's summed expected entanglement capacity (per-pair min-cut
	// over success-scaled channel counts), so a sweep that includes it can
	// report every real scheme's throughput as a fraction of what the
	// topology could theoretically deliver (see internal/oracle).
	Oracle = sched.Oracle
)

// NetworkConfig mirrors the evaluation parameters of §IV-A.
type NetworkConfig struct {
	// Nodes placed uniformly in a square area (default 200).
	Nodes int
	// AreaKM is the square side in km (default 10,000).
	AreaKM float64
	// Channels per quantum link (default 3).
	Channels int
	// Memory units per node (default 10).
	Memory int
	// SwapProb is the quantum swapping success probability q (default 0.9).
	// Zero means "use the default"; set ExplicitZero for an actual q = 0.
	SwapProb float64
	// Alpha is the attenuation in p = e^(−αl) + δ (default 2e-4).
	// Zero means "use the default"; set ExplicitZero for an actual α = 0.
	Alpha float64
	// Delta is the half-width of the uniform noise δ (default 0.05).
	// Zero means "use the default"; set ExplicitZero for an actual δ = 0.
	Delta float64
}

// DefaultNetworkConfig returns the paper's defaults.
func DefaultNetworkConfig() NetworkConfig {
	c := topo.DefaultConfig()
	return NetworkConfig{
		Nodes:    c.Nodes,
		AreaKM:   c.AreaKM,
		Channels: c.Channels,
		Memory:   c.Memory,
		SwapProb: c.SwapProb,
		Alpha:    c.Alpha,
		Delta:    c.Delta,
	}
}

// ExplicitZero marks a NetworkConfig field as "explicitly zero". The zero
// value of SwapProb, Alpha and Delta means "use the paper default" (so
// sparse literals like NetworkConfig{Nodes: 50} keep working); assigning
// ExplicitZero — or any negative value — requests an actual zero, e.g.
// perfect swapping ablations (SwapProb stays default, q=0 kills every swap)
// or a noise-free success model (Alpha=0 ⇒ p=1+δ clamp, Delta=0 ⇒ no noise).
const ExplicitZero = -1

// overrideFloat resolves the unset / default / explicit-zero convention:
// 0 keeps def, ExplicitZero (any negative) means an actual 0.
func overrideFloat(v, def float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 0:
		return v
	default:
		return def
	}
}

// toTopo is the one place the NetworkConfig convention is resolved: a
// zero (or negative) Nodes, AreaKM, Channels or Memory and a zero
// SwapProb, Alpha or Delta keep the paper default; ExplicitZero is an
// actual zero. GenerateNetwork, NSFNETNetwork, LoadNetwork and
// RunExperiment all build from its result.
func (c NetworkConfig) toTopo() topo.Config {
	t := topo.DefaultConfig()
	if c.Nodes > 0 {
		t.Nodes = c.Nodes
	}
	if c.AreaKM > 0 {
		t.AreaKM = c.AreaKM
	}
	if c.Channels > 0 {
		t.Channels = c.Channels
	}
	if c.Memory > 0 {
		t.Memory = c.Memory
	}
	t.SwapProb = overrideFloat(c.SwapProb, t.SwapProb)
	t.Alpha = overrideFloat(c.Alpha, t.Alpha)
	t.Delta = overrideFloat(c.Delta, t.Delta)
	return t
}

// SDPair is a source-destination demand. It is the canonical
// topo.SDPair every layer shares.
type SDPair = topo.SDPair

// Network is a generated quantum data network plus its demand set.
type Network struct {
	inner *topo.Network
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return n.inner.NumNodes() }

// NumLinks returns the quantum link count.
func (n *Network) NumLinks() int { return n.inner.NumLinks() }

// Stats summarizes the topology (degree, link lengths, probabilities).
func (n *Network) Stats() NetworkStats {
	st := topo.Summarize(n.inner)
	return NetworkStats{
		Nodes:        st.Nodes,
		Links:        st.Links,
		AvgDegree:    st.AvgDegree,
		MeanLinkKM:   st.MeanLinkKM,
		MeanLinkProb: st.MeanLinkProb,
	}
}

// NetworkStats summarizes a topology.
type NetworkStats struct {
	Nodes, Links int
	AvgDegree    float64
	MeanLinkKM   float64
	MeanLinkProb float64
}

// GenerateNetwork builds a random Waxman QDN with the given number of SD
// pairs, deterministically from the seed. It draws like one experiment
// trial with uniform traffic: the topology from the seed's first split
// stream, the pairs from its second. A negative pair count is an error.
func GenerateNetwork(cfg NetworkConfig, sdPairs int, seed int64) (*Network, []SDPair, error) {
	if sdPairs < 0 {
		return nil, nil, fmt.Errorf("see: negative SD pair count %d", sdPairs)
	}
	p := experiment.Params{Network: cfg.toTopo(), SDPairs: sdPairs}
	net, pairs, err := p.Instance(xrand.New(seed))
	if err != nil {
		return nil, nil, err
	}
	return &Network{inner: net}, pairs, nil
}

// MotivationNetwork returns the paper's Fig. 2 fixture with its two SD
// pairs.
func MotivationNetwork() (*Network, []SDPair) {
	net, pairs := topo.Motivation()
	return &Network{inner: net}, pairs
}

// SchedulerOptions tunes a scheduler; the zero value (or nil pointer)
// selects paper defaults. It is the canonical engines.Config, the one
// scheduler-options struct every layer shares:
//
//   - Workers bounds the LP pricing and per-pair path-enumeration
//     goroutines; any count gives a byte-identical scheduler. The paper's
//     construction parameters (K = 5 shortest paths, the segment hop cap,
//     §III-D probability pruning) are fixed.
//   - Tracer observes the slot pipeline phases and incidents; attach a
//     *CountingTracer to collect counts and latencies.
//   - Faults injects a deterministic fault schedule (see ParseFaultSpec)
//     and SlotBudget bounds the LP solve, degrading to Greedy when
//     exceeded.
//   - CarryOver keeps unconsumed segments in node memories across slots;
//     DecoherenceSlots, CarryWernerRetention, CarryMinWernerScale and
//     CarryAwareLP tune that bank and how the LP prices it.
//   - Warm shares construction artifacts across schedulers built over the
//     same Network.
//   - FidelityFloors (see ParseFloorSpec) and SwapOrder shape the stitch
//     phase.
//
// Every option at its zero value leaves the scheduler byte-identical to
// one built without that layer. NewScheduler rejects out-of-range values
// (negative counts or budgets, floors outside [0,1], unknown swap orders).
type SchedulerOptions = engines.Config

// FloorSpec is a per-request fidelity-floor table: a default floor plus
// per-SD-pair overrides. It is the canonical qnet.FloorSpec; build one
// directly or with ParseFloorSpec.
type FloorSpec = qnet.FloorSpec

// ParseFloorSpec parses the compact fidelity-floor grammar shared with the
// seesim -fidelity-floor flag: ';'-separated items, each either a bare
// floor in [0,1] (the default) or pair=floor for one SD pair.
//
//	0.8          every pair needs fidelity ≥ 0.8
//	0.8;3=0.95   pair 3 needs 0.95, everyone else 0.8
//	2=0.9        only pair 2 is floored
func ParseFloorSpec(s string) (*FloorSpec, error) { return qnet.ParseFloorSpec(s) }

// SwapOrder selects the junction-swap sampling order of the stitch phase;
// see SchedulerOptions.SwapOrder.
type SwapOrder = qnet.SwapOrder

// SwapOrderGreedy samples the least reliable junction first; the zero
// SwapOrder samples swaps in path order (the default).
const SwapOrderGreedy = qnet.SwapOrderGreedy

// ParseSwapOrder parses a swap-order name ("path" or "greedy").
func ParseSwapOrder(s string) (SwapOrder, error) { return qnet.ParseSwapOrder(s) }

// WarmCache memoizes scheduler-construction artifacts across rebuilds over
// the same network; see SchedulerOptions.Warm. It is the canonical
// warm.Cache and is safe for concurrent use.
type WarmCache = warm.Cache

// NewWarmCache returns an empty warm-start cache.
func NewWarmCache() *WarmCache { return warm.New() }

// CarryStats tallies the lifetime activity of a scheduler's cross-slot
// state bank: segments deposited, rejected for lack of memory, withdrawn,
// and lost to decoherence. Read it with SchedulerCarryStats.
type CarryStats = state.Stats

// SchedulerCarryStats returns the carry-over bank tallies of a scheduler
// built with CarryOver enabled (zero stats otherwise).
func SchedulerCarryStats(s Scheduler) CarryStats { return s.Bank().Stats() }

// SlotResult reports one simulated time slot. It is the canonical
// sched.SlotResult every engine returns — see that type for the full
// pipeline breakdown (planned/provisioned paths, attempts, segments,
// assembly attempts, established connections). A scheduler reuses its
// result's storage: a SlotResult, its connections and their segments are
// valid until that scheduler's next RunSlot, so keep a Clone to hold one
// longer.
type SlotResult = sched.SlotResult

// Scheduler runs time slots of one entanglement-establishment scheme over
// a fixed network and demand set, and exposes its cross-slot state (the
// carry-over bank and checkpoint snapshots). It is the canonical
// sched.Stateful interface every registered scheme implements.
type Scheduler = sched.Stateful

// Tracer observes the slot pipeline with per-phase callbacks; see
// sched.Tracer for the full contract. Implementations must not mutate
// engine state and never consume randomness.
type Tracer = sched.Tracer

// Phase identifies one stage of the slot pipeline observed by a Tracer:
// EPI planning, ESC reservation, the stochastic physical phase and ECE
// stitching, in execution order (see Phase.String).
type Phase = sched.Phase

// CountingTracer is a concurrency-safe Tracer that tallies phase events
// and records per-phase latencies; its zero value is ready to use.
type CountingTracer = sched.CountingTracer

// NewCountingTracer returns an empty CountingTracer.
func NewCountingTracer() *CountingTracer { return sched.NewCountingTracer() }

// JSONLTracer streams every pipeline event as one JSON object per line —
// a machine-readable slot log for offline analysis. Create one with
// NewJSONLTracer and remember to Flush (or Close) before reading the
// output.
type JSONLTracer = sched.JSONLTracer

// NewJSONLTracer returns a tracer streaming JSON lines to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return sched.NewJSONLTracer(w) }

// MultiTracer fans events out to several tracers (e.g. a CountingTracer
// plus a JSONLTracer); nil entries are dropped.
func MultiTracer(ts ...Tracer) Tracer { return sched.Multi(ts...) }

// Incident classifies the robustness events a Tracer observes: injected
// faults, degraded slots, LP construction retries, carry-over bank events,
// recovery attempts, correlated faults and fidelity-floor rejections.
type Incident = sched.Incident

// Incident kinds reported through Tracer.Incident. Every kind, these and
// the contention engine's recovery and correlated-fault kinds alike, is
// named by Incident.String.
const (
	IncidentFault    = sched.IncidentFault
	IncidentDegraded = sched.IncidentDegraded
	IncidentRetry    = sched.IncidentRetry
	// Carry-over bank events (fire only with CarryOver enabled): segments
	// withdrawn at slot start, deposited at slot end, and lost at a slot
	// boundary to the age window or stochastic decoherence.
	IncidentBankWithdraw  = sched.IncidentBankWithdraw
	IncidentBankDeposit   = sched.IncidentBankDeposit
	IncidentBankDecohered = sched.IncidentBankDecohered
	// IncidentFloorReject counts candidate connection assemblies the
	// stitch phase rolled back because their predicted end-to-end
	// fidelity missed the request's floor (fires only with
	// SchedulerOptions.FidelityFloors set).
	IncidentFloorReject = sched.IncidentFloorReject
)

// FaultPlan is a deterministic fault schedule for a scheduler: node crash
// windows, link outage windows, correlated link faults and memory
// decoherence, all derived from the plan's seed. It is the canonical
// chaos.FaultPlan; build one directly or via ParseFaultSpec.
type FaultPlan = chaos.FaultPlan

// ParseFaultSpec parses the compact fault-spec grammar shared with the
// seesim -faults flag, e.g.
//
//	seed=7;node=3@2-5;link=10@1-;decohere=0.02
//
// Fields: node=<id>@<from>-<to> crashes a node for a slot window (open
// ends allowed), link=<id>@... takes a link down, decohere=<p> destroys
// created segments with probability p. Any other key is an error. Correlated items use ':' and are ';'-separated:
// cut:x,y,r@<from>-<to> fails every link whose midpoint lies in the disc,
// brown:link,frac@... keeps frac of a link's channels, and
// flap:link,period,duty@... oscillates a link with the given duty cycle.
// A '!' before an item's first value (e.g. node=!3@2-5, brown:!2,0.5)
// marks it a surprise: it still fires but is hidden from the fault
// forecast the fault-aware schedulers plan around. Windows are inclusive
// slot ranges.
func ParseFaultSpec(s string) (*FaultPlan, error) { return chaos.ParseSpec(s) }

// ParseAlgorithm parses a case-insensitive algorithm name (see, reps, e2e,
// greedy, contend, qpass, contend-aware, see-aware, oracle).
func ParseAlgorithm(s string) (Algorithm, error) { return sched.ParseAlgorithm(s) }

// Algorithms lists all schemes in display order.
var Algorithms = sched.Algorithms

// NewScheduler builds a scheduler for the given algorithm. opts may be nil.
// Every scheme is constructed through the shared internal/engines factory,
// so a scheduler built here behaves identically to one driven by the
// experiment harness.
func NewScheduler(alg Algorithm, net *Network, pairs []SDPair, opts *SchedulerOptions) (Scheduler, error) {
	if net == nil {
		return nil, errors.New("see: nil network")
	}
	var o SchedulerOptions
	if opts != nil {
		o = *opts
	}
	// The engine keeps its own copy, so the caller may reuse pairs.
	return engines.New(alg, net.inner, slices.Clone(pairs), o)
}

// LoadNetwork reads a topology from the edge-list text format of
// internal/topo.LoadEdgeList:
//
//	node <id> <x-km> <y-km> [memory] [swap-prob]
//	link <u> <v> [length-km] [channels]
//
// Omitted per-element resources fall back to cfg, resolved like every
// NetworkConfig (zero means the paper default, ExplicitZero an actual
// zero); the segment success model is p = e^(−αl) + δ with δ noise seeded
// by seed. The file fixes the nodes, so cfg.Nodes and cfg.AreaKM are not
// read.
func LoadNetwork(r io.Reader, cfg NetworkConfig, seed int64) (*Network, error) {
	net, err := topo.LoadEdgeList(r, cfg.toTopo(), seed)
	if err != nil {
		return nil, err
	}
	return &Network{inner: net}, nil
}

// NSFNETNetwork returns the classic 14-node NSFNET backbone with the given
// resource configuration (resolved as in LoadNetwork) — a standard
// reference topology for quantum network evaluations.
func NSFNETNetwork(cfg NetworkConfig, seed int64) (*Network, error) {
	net, err := topo.NSFNet(cfg.toTopo(), seed)
	if err != nil {
		return nil, err
	}
	return &Network{inner: net}, nil
}

// ChoosePairs samples SD pairs from an existing network (loaded or
// generated), deterministically from the seed.
func ChoosePairs(net *Network, count int, seed int64) []SDPair {
	return topo.ChooseSDPairs(net.inner, count, xrand.New(seed))
}

// Traffic selects how SD pairs are drawn (see ChoosePairsWithTraffic). It
// is the canonical topo.TrafficPattern.
type Traffic = topo.TrafficPattern

// Traffic patterns: the paper's uniform sampling, a data-centre hotspot,
// and gravity-style geographic clustering.
const (
	TrafficUniform = topo.TrafficUniform
	TrafficHotspot = topo.TrafficHotspot
	TrafficGravity = topo.TrafficGravity
)

// ChoosePairsWithTraffic samples SD pairs under a traffic pattern,
// deterministically from the seed. TrafficHotspot anchors half the demand
// at the highest-degree node; TrafficGravity prefers geographically close
// pairs.
func ChoosePairsWithTraffic(net *Network, count int, pattern Traffic, seed int64) []SDPair {
	cfg := topo.TrafficConfig{Pattern: pattern, Hub: -1}
	return topo.ChooseSDPairsWithTraffic(net.inner, count, cfg, xrand.New(seed))
}

// TrafficServer drives a Scheduler as a long-lived entanglement traffic
// server: an arrival process generates per-user connection requests with
// QoS classes and deadlines, an admission controller bounds the active
// set, and each slot's established connections serve the queued requests
// of their SD pairs in class-priority order. See internal/serve and
// DESIGN.md §8.
type TrafficServer = serve.Server

// ServeConfig parameterizes a TrafficServer; build one from a spec string
// with ParseArrivalSpec.
type ServeConfig = serve.Config

// ServeReport summarizes a service-mode run: throughput next to per-class
// service rates and Jain's fairness index over per-user service.
type ServeReport = serve.Report

// ServeSlotStats reports one service-mode slot. The server reuses it: it is
// valid until the server's next slot.
type ServeSlotStats = serve.SlotStats

// ParseArrivalSpec parses a service-mode arrival specification such as
//
//	poisson;rate=3;users=200;mix=0.2/0.3/0.5;deadline=4/8/16;max-active=64
//
// (also diurnal and bursty processes; see serve.ParseSpec for the full
// grammar). The caller sets Seed — and Tracer, when pipeline counters
// should ride along in checkpoints — on the returned config.
func ParseArrivalSpec(spec string) (ServeConfig, error) {
	return serve.ParseSpec(spec)
}

// NewTrafficServer builds a traffic server over a scheduler serving
// `pairs` SD pairs (the length of the pair set the scheduler was built
// with). The server owns all randomness: arrivals and the scheduler's
// slots draw from one internal stream seeded by cfg.Seed, which is what
// makes a checkpoint cursor pin the remaining run.
func NewTrafficServer(s Scheduler, pairs int, cfg ServeConfig) (*TrafficServer, error) {
	return serve.New(s, pairs, cfg)
}
