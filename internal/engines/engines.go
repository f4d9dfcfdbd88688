// Package engines is the single construction point for the slot-pipeline
// engines: it maps a sched.Algorithm to the package implementing it
// (internal/core for SEE, SEE-Aware and E2E, internal/reps,
// internal/greedy, internal/contend for Contend, Contend-Aware and QPass,
// internal/oracle) and translates the one scheduler-options struct, Config,
// into each engine's options, with the slot-level part filled in one place
// (slotConfig). Each scheme's candidate enumeration is one row of one
// table (Enumeration); the package builds that set and the per-pair caps
// N_i once per construction and hands both to the engine's constructor.
// New also builds the scheduler's fault injector, ladder and bank. The
// public API (package see) and the experiment harness build
// schedulers only here, so no algorithm type-switch and no such assembly
// exists anywhere else.
//
// The package also owns the degradation ladder (NewResilient): when an
// LP-based engine's construction exceeds its slot budget or fails, the
// scheduler falls back to the greedy non-LP engine for the affected slots
// and retries the LP a bounded number of times, reporting every step
// through the tracer (see DESIGN.md "Fault model & degradation ladder").
package engines

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"see/internal/chaos"
	"see/internal/contend"
	"see/internal/core"
	"see/internal/greedy"
	"see/internal/oracle"
	"see/internal/qnet"
	"see/internal/reps"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/state"
	"see/internal/topo"
	"see/internal/warm"
)

// Config tunes a scheduler; the zero value selects paper defaults for
// every scheme. It is the one scheduler-options struct: see.SchedulerOptions
// is an alias and the experiment harness embeds it. The paper's
// construction parameters (K shortest paths, the segment hop cap, §III-D
// probability pruning) are fixed per scheme in one table (Enumeration).
type Config struct {
	// Workers bounds the goroutines of every scheme's LP pricing rounds
	// and per-SD-pair path enumeration (0 = GOMAXPROCS, 1 = serial).
	// Results are byte-identical at any worker count.
	Workers int
	// Tracer observes the slot pipeline; nil means no instrumentation.
	Tracer sched.Tracer
	// Faults is a deterministic fault schedule; New builds the scheduler's
	// own injector from it. Nil, or a zero plan, leaves the scheduler
	// byte-identical to a run without the fault layer.
	Faults *chaos.FaultPlan
	// SlotBudget, when positive, wraps the engine in the degradation
	// ladder (NewResilient) with this LP budget per construction.
	SlotBudget time.Duration
	// CarryOver attaches a cross-slot state bank (see internal/state),
	// whose stochastic decoherence is the Faults plan's.
	CarryOver bool
	// DecoherenceSlots is the bank's age window (0 = default 1; see
	// state.Policy.CarrySlots).
	DecoherenceSlots int
	// CarryWernerRetention is the bank's per-boundary Werner aging (see
	// state.Policy.WernerRetention).
	CarryWernerRetention float64
	// CarryMinWernerScale is the bank's substitution threshold (see
	// state.Policy.MinWernerScale).
	CarryMinWernerScale float64
	// Warm, when non-nil, memoizes segment-candidate sets and LP solutions
	// across engine (re)builds over the same network (see internal/warm).
	// Every replayed artifact is byte-identical to a cold build, and
	// budgeted construction (a non-nil ctx) bypasses the cache, so enabling
	// it never changes results — only how fast rebuilds go.
	Warm *warm.Cache
	// FidelityFloors is the per-request minimum delivered end-to-end
	// fidelity (see qnet.FloorSpec and DESIGN.md §10). Engines never
	// attempt a candidate assembly whose predicted fidelity misses its
	// pair's floor. Nil (or an all-zero spec) disables enforcement and
	// leaves every engine byte-identical to pre-floor behavior.
	FidelityFloors *qnet.FloorSpec
	// SwapOrder selects the stitch phase's swap schedule. The zero value
	// (qnet.SwapOrderPath) is the historical left-to-right path order and
	// is byte-identical to pre-knob behavior; qnet.SwapOrderGreedy swaps
	// the least reliable junction first.
	SwapOrder qnet.SwapOrder
	// CarryAwareLP re-prices the SEE LP each slot with banked-inventory
	// weights, so column generation prefers stitches that reuse
	// high-fidelity carried segments (no-op without an attached bank or
	// with an empty one; see flow.Options.CarryWeights).
	CarryAwareLP bool
}

// Validate rejects a Config no scheduler can honour: negative counts and
// budgets, floors outside [0,1], a NaN, infinite or negative carry
// retention or substitution threshold, and unknown swap orders. New and
// NewResilient call it, so every construction path checks the same rules.
func (c Config) Validate() error {
	switch {
	case c.Workers < 0:
		return fmt.Errorf("engines: negative Workers %d (0 selects GOMAXPROCS)", c.Workers)
	case c.SlotBudget < 0:
		return fmt.Errorf("engines: negative SlotBudget %v", c.SlotBudget)
	case c.DecoherenceSlots < 0:
		return fmt.Errorf("engines: negative DecoherenceSlots %d", c.DecoherenceSlots)
	case !finiteNonNegative(c.CarryWernerRetention):
		return fmt.Errorf("engines: CarryWernerRetention %v is not a finite non-negative number", c.CarryWernerRetention)
	case !finiteNonNegative(c.CarryMinWernerScale):
		return fmt.Errorf("engines: CarryMinWernerScale %v is not a finite non-negative number", c.CarryMinWernerScale)
	}
	if f := c.FidelityFloors; f != nil {
		if f.Default < 0 || f.Default > 1 {
			return fmt.Errorf("engines: fidelity floor %v outside [0,1]", f.Default)
		}
		for pair, v := range f.PerPair {
			if v < 0 || v > 1 {
				return fmt.Errorf("engines: fidelity floor %v for pair %d outside [0,1]", v, pair)
			}
		}
	}
	switch c.SwapOrder {
	case qnet.SwapOrderPath, qnet.SwapOrderGreedy:
	default:
		return fmt.Errorf("engines: unknown SwapOrder %v", c.SwapOrder)
	}
	return nil
}

// finiteNonNegative reports whether v is a real number ≥ 0 (NaN fails
// every comparison, so it is rejected with the infinities).
func finiteNonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// builder constructs one scheme's engine from its build inputs; ctx (nil =
// never cancelled) bounds any LP solves the construction performs.
type builder func(ctx context.Context, in *instance) (sched.Stateful, error)

// builders is the algorithm registry.
var builders = map[sched.Algorithm]builder{
	sched.SEE:          newSEE,
	sched.SEEAware:     newSEE,
	sched.REPS:         newREPS,
	sched.E2E:          newE2E,
	sched.Greedy:       newGreedy,
	sched.Contend:      newContend,
	sched.ContendAware: newContend,
	sched.QPass:        newContend,
	sched.Oracle:       newOracle,
}

// seeEnumeration is SEE's candidate enumeration (paper §III-D): the
// contiguous sub-segments of K = 5 Yen shortest paths per SD pair, up to
// 10 hops long, pruned below creation probability 0.05, keeping the best
// 3 physical realizations per endpoint pair.
var seeEnumeration = segment.Options{KPaths: 5, MaxSegmentHops: 10, MinProb: 0.05, MaxCandidatesPerPair: 3}

// enumerations is the one candidate-enumeration table: every scheme that
// plans over segment candidates builds its set from its row here, and
// only here. REPS and E2E are the two extremes of SEE's enumeration
// (§IV-A): REPS caps segments at one hop (entanglement links only) and
// E2E stretches one segment over each pair's whole shortest path; neither
// prunes by probability. The LP-free engines plan over SEE's catalogue so
// they are compared on the same candidates. Oracle has no row: capacity
// bounds need no candidates.
var enumerations = map[sched.Algorithm]segment.Options{
	sched.SEE:          seeEnumeration,
	sched.SEEAware:     seeEnumeration,
	sched.Contend:      seeEnumeration,
	sched.ContendAware: seeEnumeration,
	sched.QPass:        seeEnumeration,
	sched.Greedy:       seeEnumeration,
	sched.E2E:          {KPaths: 1, MaxCandidatesPerPair: 3, FullPathOnly: true},
	sched.REPS:         {KPaths: 5, MaxSegmentHops: 1, MaxCandidatesPerPair: 3},
}

// Enumeration returns the algorithm's candidate enumeration (Workers
// unset), and false for a scheme that builds no candidate set.
func Enumeration(alg sched.Algorithm) (segment.Options, bool) {
	o, ok := enumerations[alg]
	return o, ok
}

// instance is what a builder builds from.
type instance struct {
	alg   sched.Algorithm
	net   *topo.Network
	pairs []topo.SDPair
	// set is the scheme's candidate set (nil for a scheme without an
	// enumeration) and connCap its per-pair caps N_i, from the planning
	// memory.
	set     *segment.Set
	connCap []int
	// planChannels / planMemory are the forecast capacity tables of a
	// fault-aware scheme (nil otherwise, and nil without a forecast);
	// avoided is the number of elements the forecast routes around.
	planChannels, planMemory []int
	avoided                  int
	cfg                      Config
	inj                      *chaos.Injector
}

// build constructs the algorithm's engine: it derives the forecast tables
// of a fault-aware scheme, builds the scheme's candidate set once through
// the warm cache (a non-nil ctx bypasses it), computes N_i once, and hands
// all of it to the scheme's builder.
func build(ctx context.Context, alg sched.Algorithm, net *topo.Network, pairs []topo.SDPair, cfg Config, inj *chaos.Injector) (sched.Stateful, error) {
	in := &instance{alg: alg, net: net, pairs: pairs, cfg: cfg, inj: inj}
	if alg.FaultAware() {
		in.planChannels, in.planMemory, in.avoided = forecastTables(inj, net)
	}
	if enum, ok := enumerations[alg]; ok {
		enum.Workers = cfg.Workers
		set, err := cfg.Warm.SegmentSet(ctx, net, pairs, enum)
		if err != nil {
			return nil, fmt.Errorf("engines: building %v candidates: %w", alg, err)
		}
		in.set, in.connCap = set, set.ConnCap(in.planMemory)
	}
	return builders[alg](ctx, in)
}

// List returns every registered algorithm in ascending order. The
// cross-engine invariant harness (internal/sched/schedtest) iterates this
// list so a newly registered engine is automatically subjected to the
// shared pipeline invariants.
func List() []sched.Algorithm {
	out := make([]sched.Algorithm, 0, len(builders))
	for alg := range builders {
		out = append(out, alg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// New builds a ready scheduler for the algorithm: the engine with its own
// fault injector built from cfg.Faults, wrapped in the degradation ladder
// when cfg.SlotBudget > 0, with a cross-slot bank attached when
// cfg.CarryOver is set.
func New(alg sched.Algorithm, net *topo.Network, pairs []topo.SDPair, cfg Config) (sched.Stateful, error) {
	if cfg.SlotBudget > 0 {
		return NewResilient(alg, net, pairs, cfg)
	}
	inj, err := prepare(alg, net, pairs, cfg)
	if err != nil {
		return nil, err
	}
	eng, err := build(nil, alg, net, pairs, cfg, inj)
	if err != nil {
		return nil, err
	}
	attachCarry(eng, net, cfg)
	return eng, nil
}

// prepare checks what every construction path needs before any build work
// and returns the scheduler's injector (nil without cfg.Faults).
func prepare(alg sched.Algorithm, net *topo.Network, pairs []topo.SDPair, cfg Config) (*chaos.Injector, error) {
	if net == nil {
		return nil, errors.New("engines: nil network")
	}
	if !Registered(alg) {
		return nil, fmt.Errorf("engines: unknown algorithm %v", alg)
	}
	if _, ok := enumerations[alg]; ok && len(pairs) == 0 {
		return nil, fmt.Errorf("engines: %v needs at least one SD pair", alg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Faults == nil {
		return nil, nil
	}
	return chaos.NewInjector(cfg.Faults, net)
}

// attachCarry attaches a fresh cross-slot bank when cfg.CarryOver is set.
// The bank's stochastic boundary hazard reuses the fault plan's
// decoherence probability and seed; without a plan the hazard is zero and
// only the age window drains the bank.
func attachCarry(eng sched.Stateful, net *topo.Network, cfg Config) {
	if !cfg.CarryOver {
		return
	}
	pol := state.Policy{
		CarrySlots:      cfg.DecoherenceSlots,
		WernerRetention: cfg.CarryWernerRetention,
		MinWernerScale:  cfg.CarryMinWernerScale,
	}
	if cfg.Faults != nil {
		pol.Decoherence = cfg.Faults.Decoherence
		pol.Seed = cfg.Faults.Seed
	}
	eng.AttachBank(state.NewBank(net, pol))
}

// slotConfig is the slot-level part of every engine's options: the scheme
// label, injector and forecast incident plus the tracer, fidelity floors
// and swap order from the shared Config.
func slotConfig(in *instance) sched.SlotConfig {
	return sched.SlotConfig{
		Algorithm:       in.alg,
		Tracer:          in.cfg.Tracer,
		Chaos:           in.inj,
		FidelityFloors:  in.cfg.FidelityFloors,
		SwapOrder:       in.cfg.SwapOrder,
		ForecastAvoided: in.avoided,
	}
}

// newSEE builds SEE and its fault-aware twin, which plans on the forecast
// tables (nil for SEE).
func newSEE(ctx context.Context, in *instance) (sched.Stateful, error) {
	co := core.DefaultOptions()
	co.Flow.Workers = in.cfg.Workers
	co.Flow.Channels, co.Flow.Memory = in.planChannels, in.planMemory
	// Always on for the twin (not gated on a non-zero forecast) so
	// planning on a full topology with forecast tables is the same code
	// path as planning on a pre-shrunk topology with none — the
	// equivalence the schedtest forecast contract pins. With no dead
	// links it drops nothing.
	co.Flow.DropDeadLinks = in.alg.FaultAware()
	co.Warm = in.cfg.Warm
	co.CarryAwareLP = in.cfg.CarryAwareLP
	co.Slot = slotConfig(in)
	return core.New(ctx, in.set, in.connCap, co)
}

// newE2E builds the all-optical-switching-only baseline of the paper's
// evaluation: every connection is one entanglement segment spanning a full
// physical SD route, with no swapping. It is the "only all-optical
// switching" extreme of SEE (§IV-A), so it is the SEE engine over E2E's
// full-path enumeration (one route per pair, the paper's strawman; more
// routes make E2E noticeably stronger). Only the worker count, the warm
// cache and the slot-level fields carry over from Config.
func newE2E(ctx context.Context, in *instance) (sched.Stateful, error) {
	co := core.DefaultOptions()
	co.Flow.Workers = in.cfg.Workers
	co.Warm = in.cfg.Warm
	co.Slot = slotConfig(in)
	return core.New(ctx, in.set, in.connCap, co)
}

func newREPS(ctx context.Context, in *instance) (sched.Stateful, error) {
	o := reps.Options{Warm: in.cfg.Warm, Slot: slotConfig(in)}
	o.Flow.Workers = in.cfg.Workers
	return reps.New(ctx, in.set, in.connCap, o)
}

// newContend builds Contend, its fault-aware twin (which starts its
// residuals from the forecast tables, nil for the others) and the
// Q-PASS-style offline contrast baseline: paths fixed from the fault-free
// topology with per-hop recovery reserved up front, the forecast
// deliberately ignored.
func newContend(_ context.Context, in *instance) (sched.Stateful, error) {
	o := contend.DefaultOptions()
	o.Slot = slotConfig(in)
	o.PlanChannels, o.PlanMemory = in.planChannels, in.planMemory
	o.Offline = in.alg == sched.QPass
	o.Workers = in.cfg.Workers
	return contend.New(in.set, in.connCap, o)
}

func newGreedy(_ context.Context, in *instance) (sched.Stateful, error) {
	return greedy.New(in.set, in.connCap, slotConfig(in))
}

// forecastTables turns the injector's announced-fault forecast into
// planning capacity tables: channels/memory with forecast-dead elements
// zeroed and browned links derated, plus the number of elements the
// forecast routes around. All nil/0 when there is no forecast, so
// fault-aware engines without announced faults plan on the true topology
// and stay byte-identical to their fault-blind twins.
func forecastTables(in *chaos.Injector, net *topo.Network) (channels, memory []int, avoided int) {
	fc := in.Forecast()
	if fc.IsZero() {
		return nil, nil, 0
	}
	channels = make([]int, net.NumLinks())
	for id := range channels {
		channels[id] = fc.Channels(id, net.Channels[id])
	}
	memory = make([]int, net.NumNodes())
	for v := range memory {
		memory[v] = fc.Memory(v, net.Memory[v])
	}
	return channels, memory, fc.Avoided()
}

// newOracle builds the capacity-bound pseudo-engine. It takes only the
// tracer from the shared Config, on purpose: capacity bounds depend on the
// topology and the demand set alone, not on any scheme tuning or fault.
func newOracle(_ context.Context, in *instance) (sched.Stateful, error) {
	return oracle.NewEngine(in.net, in.pairs, in.cfg.Tracer)
}

// maxConstructionRetries bounds how many slots retry a failed LP
// construction before the resilient engine settles on the greedy fallback
// for good.
const maxConstructionRetries = 3

// Resilient is the degradation ladder around an LP-based engine. The
// primary engine's LP solve happens lazily inside the first RunSlot under
// the slot budget, so a solve that blows the budget degrades that same
// slot to the greedy fallback — the slot still completes with nonzero
// attempted paths. Later slots retry the LP up to maxConstructionRetries
// times (each retry reported as sched.IncidentRetry, each degraded slot as
// sched.IncidentDegraded) before settling on the fallback permanently.
type Resilient struct {
	alg    sched.Algorithm
	net    *topo.Network
	pairs  []topo.SDPair
	cfg    Config
	tracer sched.Tracer
	// inj is the one fault injector the primary and the fallback share,
	// so a failover keeps the slot clock and the fault stream.
	inj *chaos.Injector

	primary  sched.Stateful
	fallback sched.Stateful
	failures int
	lastErr  error
	// bank is the cross-slot segment bank to attach to whichever engine
	// ends up serving slots. It is held here because both the primary and
	// the fallback are built lazily — and it deliberately survives
	// degradation: banked photons sit in node memories, which do not care
	// which scheduler failed over.
	bank *state.Bank
}

var _ sched.Stateful = (*Resilient)(nil)

// NewResilient wraps the algorithm in the degradation ladder, with the
// injector and bank New would give it. cfg.SlotBudget is the LP budget;
// zero means no deadline (the primary still degrades on solver errors or
// panics). The network and configuration are validated eagerly, but the
// primary's LP is deferred to the first slot.
func NewResilient(alg sched.Algorithm, net *topo.Network, pairs []topo.SDPair, cfg Config) (*Resilient, error) {
	inj, err := prepare(alg, net, pairs, cfg)
	if err != nil {
		return nil, err
	}
	r := &Resilient{
		alg:    alg,
		net:    net,
		pairs:  pairs,
		cfg:    cfg,
		tracer: sched.OrNop(cfg.Tracer),
		inj:    inj,
	}
	attachCarry(r, net, cfg)
	return r, nil
}

// buildPrimary attempts the budgeted LP construction, converting panics
// (e.g. a par.WorkerPanic escaping a pricing worker) into errors so one
// broken solve degrades the slot instead of killing the process.
func (r *Resilient) buildPrimary() (eng sched.Stateful, err error) {
	ctx := context.Context(nil)
	cancel := func() {}
	if r.cfg.SlotBudget > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), r.cfg.SlotBudget)
	}
	defer cancel()
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("engines: construction panic: %v", v)
		}
	}()
	return build(ctx, r.alg, r.net, r.pairs, r.cfg, r.inj)
}

// RunSlot serves the slot with the primary engine when available, else
// degrades to the greedy fallback.
func (r *Resilient) RunSlot(rng *rand.Rand) (*sched.SlotResult, error) {
	if r.primary == nil && r.failures <= maxConstructionRetries {
		if r.failures > 0 {
			r.tracer.Incident(sched.IncidentRetry, 1)
		}
		eng, err := r.buildPrimary()
		if err != nil {
			r.failures++
			r.lastErr = err
		} else {
			r.primary = eng
			r.attachBank(eng)
		}
	}
	if r.primary != nil {
		return r.primary.RunSlot(rng)
	}
	if r.fallback == nil {
		eng, err := build(nil, sched.Greedy, r.net, r.pairs, r.cfg, r.inj)
		if err != nil {
			return nil, fmt.Errorf("engines: greedy fallback: %w (primary: %v)", err, r.lastErr)
		}
		r.fallback = eng
		r.attachBank(eng)
	}
	r.tracer.Incident(sched.IncidentDegraded, 1)
	return r.fallback.RunSlot(rng)
}

// Algorithm reports the scheme the caller asked for, degraded or not.
func (r *Resilient) Algorithm() sched.Algorithm { return r.alg }

// UpperBound returns the primary's planning value when available, else
// the fallback's heuristic value (0 before any slot has run).
func (r *Resilient) UpperBound() float64 {
	if r.primary != nil {
		return r.primary.UpperBound()
	}
	if r.fallback != nil {
		return r.fallback.UpperBound()
	}
	return 0
}

// Degraded reports how the ladder stands: whether the primary is
// unavailable and the error of its last failed construction.
func (r *Resilient) Degraded() (bool, error) {
	return r.primary == nil && r.failures > 0, r.lastErr
}

// AttachBank implements sched.Stateful. The bank is handed to whichever
// engine serves slots — including a primary built lazily on a later slot —
// so banked segments survive degradation and recovery alike.
func (r *Resilient) AttachBank(b *state.Bank) {
	r.bank = b
	r.attachBank(r.primary)
	r.attachBank(r.fallback)
}

// Bank implements sched.Stateful.
func (r *Resilient) Bank() *state.Bank { return r.bank }

// attachBank forwards the stored bank to a newly built engine (no-op for
// a nil engine or a nil bank).
func (r *Resilient) attachBank(eng sched.Stateful) {
	if eng == nil || r.bank == nil {
		return
	}
	eng.AttachBank(r.bank)
}
