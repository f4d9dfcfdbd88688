// Package core implements the paper's contribution — the SEE scheduler:
//
//   - EPI (Algorithm 1): Entanglement Path Identification — LP relaxation
//     of formulation (1), solved via internal/flow, followed by randomized
//     rounding into concrete entanglement paths.
//   - ESC (Algorithm 2): Entanglement Segment Creation — ordered, fair
//     reservation of channels and memory so that the expected number of
//     created segments covers every provisioned path, preferring
//     high-probability physical realizations.
//   - ECE (Algorithm 3): Entanglement Connection Establishment — assignment
//     of realized segments to provisioned paths, then opportunistic
//     shortest-path construction of extra connections from leftovers on the
//     auxiliary graph with node weight −ln q_u.
//
// The Engine supplies the three as the plan, reserve and stitch phases of
// the shared slot skeleton (sched.Runner), which adds the stochastic
// physical phase, chaos, the cross-slot bank and tracing to simulate one
// time slot of a QDN. Restricted to full-path candidates it is also the
// paper's E2E baseline (internal/engines builds both).
package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"see/internal/flow"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/warm"
)

// Options configures a SEE engine. The candidate set and the per-pair
// caps are New's arguments: internal/engines decides both for every
// scheme.
type Options struct {
	// Flow tunes the LP relaxation solve. Its Channels / Memory, when
	// non-nil, replace the network's capacity tables in every planning
	// decision — LP right-hand sides and the ESC reservation ledger —
	// while the physical phase keeps the true topology. The fault-aware
	// builder (see-aware in internal/engines) derives them from
	// chaos.Forecast, so planning on the full topology with announced
	// outages is byte-identical to planning on the equivalent pre-shrunk
	// topology. Its ConnCap is New's connCap.
	Flow flow.Options
	// StrictProvisioning makes ESC follow Algorithm 2 verbatim: a path is
	// provisioned only if the *expected* number of created segments covers
	// its demand on every hop. The default (false) additionally keeps
	// paths whose segments each received at least one attempt, which is
	// strictly better in resource-starved networks.
	StrictProvisioning bool
	// Slot is the slot-level configuration (scheme label, tracer, chaos,
	// fidelity floors, swap order, forecast incident) the shared
	// sched.Runner applies. E2E is this engine with full-path candidates
	// and the E2E label. The controller stays unaware of chaos outages:
	// planning and reservation are untouched, attempts over down routes
	// simply fail, unless Flow's capacity overrides are set.
	Slot sched.SlotConfig
	// Warm, when non-nil, memoizes LP solutions across engine (re)builds
	// over the same network (see internal/warm). Replayed artifacts are
	// byte-identical to cold builds; the cache is bypassed entirely for
	// budgeted construction (non-nil ctx) so degradation behavior is
	// cache-independent.
	Warm *warm.Cache
	// CarryAwareLP re-prices the LP at the start of any slot that
	// withdrew banked segments, dividing each segment edge's pricing cost
	// by a weight grown with the banked inventory covering it (see
	// flow.Options.CarryWeights), so EPI's rounding tables prefer paths
	// that can stitch through already-realized, high-fidelity carried
	// segments. Slots with an empty bank — and engines without a bank —
	// plan on the construction-time LP unchanged.
	CarryAwareLP bool
}

// DefaultOptions returns the SEE defaults: the swap-survival-weighted LP
// objective (see flow.Options).
func DefaultOptions() Options {
	return Options{Flow: flow.Options{SwapWeightedObjective: true}}
}

// Engine runs SEE time slots over a fixed network and SD-pair workload.
// The LP relaxation depends only on the (static) topology, so it is solved
// once at construction; each slot performs randomized rounding, resource
// reservation, the stochastic physical phase and connection establishment.
type Engine struct {
	Net   *topo.Network
	Pairs []topo.SDPair
	Set   *segment.Set
	// LP is the cached fractional optimum; its objective is the planning
	// value UpperBound returns.
	LP *flow.Solution
	// ConnCap is the per-pair connection cap N_i.
	ConnCap []int

	// Runner is the shared slot skeleton; the engine supplies EPI, ESC
	// and ECE as its phases.
	sched.Runner

	opts Options
	// slot is the reusable per-slot scratch (see scratch.go); epiPaths and
	// epiWeights are the lazily derived EPI tables of the fixed LP.
	slot       *slotScratch
	epiPaths   [][]flow.PathFlow
	epiWeights [][]float64
	// carryArena carries the dual-independent pricing tables, the master
	// simplex's buffers and the pricing scratch across the carry-aware
	// per-slot LP re-solves (Options.CarryAwareLP); the re-solve bypasses
	// the warm cache because its inputs change with the slot's banked
	// inventory. carryWeights is the re-solve's CarryWeights buffer,
	// refilled every slot; the solve reads it only while it runs.
	carryArena   flow.Arena
	carryWeights []float64
}

var _ sched.Stateful = (*Engine)(nil)

// New solves the LP relaxation over the candidate set, with connCap as the
// per-pair caps N_i. ctx (nil = never cancelled) bounds the solve: an
// expired deadline aborts construction with an error wrapping ctx.Err();
// the degradation ladder in internal/engines uses this to fall back to
// the greedy engine when the solve blows its slot budget.
func New(ctx context.Context, set *segment.Set, connCap []int, opts Options) (*Engine, error) {
	opts.Flow.ConnCap = connCap
	sol, err := opts.Warm.Solve(ctx, set, opts.Flow)
	if err != nil {
		return nil, fmt.Errorf("core: solving LP relaxation: %w", err)
	}
	return &Engine{
		Net:     set.Net,
		Pairs:   set.Pairs,
		Set:     set,
		LP:      sol,
		ConnCap: connCap,
		Runner:  sched.NewRunner(opts.Slot, set.Net, set.CandidateFor),
		opts:    opts,
	}, nil
}

// RunSlot simulates one time slot. The rng drives EPI rounding, the
// physical phase and swapping; a fixed rng state reproduces the slot
// exactly (tracers observe outcomes but never consume randomness).
func (e *Engine) RunSlot(rng *rand.Rand) (*sched.SlotResult, error) {
	return e.Run(e, rng, sched.SlotResult{LPObjective: e.LP.Objective}, len(e.Pairs))
}

// PlanPhase implements sched.SlotPhases with step i, EPI. With carry-aware
// pricing enabled and banked inventory in hand, the slot rounds over a
// re-priced LP whose columns prefer the carried segments; otherwise it
// rounds over the construction-time optimum.
func (e *Engine) PlanPhase(s *sched.Slot) bool {
	lp := e.LP
	if e.opts.CarryAwareLP && len(s.Withdrawn) > 0 {
		if sol := e.carryAwareSolve(s.Withdrawn); sol != nil {
			lp = sol
		}
	}
	sc := e.scratch()
	sc.planned = e.identifyPathsLP(sc.planned[:0], lp, s.Rng)
	s.Result.PlannedPaths = len(sc.planned)
	if s.Traced {
		for _, p := range sc.planned {
			e.Tracer().PathPlanned(p.Commodity, len(p.Hops))
		}
	}
	return true
}

// ReservePhase implements sched.SlotPhases with step ii, ESC, over the
// engine's slot scratch (ledger, coverage tables, attempt plan).
func (e *Engine) ReservePhase(s *sched.Slot) (plan, held qnet.AttemptPlan, err error) {
	sc := e.scratch()
	plan, sc.provisioned, err = e.createSegmentsPlanScratch(sc.planned, sc)
	if err != nil {
		return nil, nil, err
	}
	s.Result.ProvisionedPaths = len(sc.provisioned)
	if s.Traced {
		for _, p := range sc.provisioned {
			e.Tracer().PathProvisioned(p.Commodity)
		}
	}
	return plan, nil, nil
}

// PhysicalHook implements sched.SlotPhases; SEE adds nothing to the
// physical phase.
func (e *Engine) PhysicalHook(*sched.Slot) {}

// StitchPhase implements sched.SlotPhases with steps iii–iv, ECE
// (Algorithm 3): lines 2–6 satisfy the provisioned paths whose segments
// all realized (sched.Slot.StitchFixed), then lines 7–15 build extra
// connections for under-served SD pairs from the leftovers by repeated
// shortest path on the auxiliary graph (sched.Slot.StitchRoutes).
//
// Swapping is sampled as each connection is assembled: a failed swap
// consumes the connection's segments but leaves the SD pair eligible, so
// redundant segments — which the provisioning LP paid for through the
// √(q_u·q_v) apportioning of constraint (1d) — back up swap failures. This
// is what makes redundant provisioning compensate swapping losses (and it
// is the only reading under which the paper's Fig. 5 scaling and the
// SEE→E2E convergence at low q are reproducible).
func (e *Engine) StitchPhase(s *sched.Slot) (assembled, floorRejected int) {
	sc := e.scratch()
	// The provisioned paths as the Runner's fixed paths, over buffers
	// recycled from the slot scratch.
	fixed := slices.Grow(sc.fixed[:0], len(sc.provisioned))[:len(sc.provisioned)]
	keys, ids := sc.hopKeys[:0], sc.hopIDs[:0]
	for i := range sc.provisioned {
		p, fp := &sc.provisioned[i], &fixed[i]
		from := len(keys)
		for _, hop := range p.Hops {
			keys, ids = append(keys, hop.Pair), append(ids, hop.Edge)
		}
		fp.Commodity, fp.Nodes, fp.Hops, fp.PairIDs = p.Commodity, p.Nodes, keys[from:], ids[from:]
	}
	sc.fixed, sc.hopKeys, sc.hopIDs = fixed, keys, ids
	assembled, floorRejected = s.StitchFixed(fixed, e.ConnCap)
	a, f := s.StitchRoutes(e.Pairs, e.ConnCap)
	return assembled + a, floorRejected + f
}

// carryAwareSolve re-prices the LP with the slot's banked inventory folded
// into column pricing: every withdrawn segment adds its decayed Werner
// quality to its endpoint pair's edge weight, so pricing sees segment
// edges already covered by high-fidelity carried photons as cheaper (see
// flow.Options.CarryWeights). A failed solve falls back to the
// construction-time LP rather than failing the slot.
func (e *Engine) carryAwareSolve(withdrawn []*qnet.Segment) *flow.Solution {
	if len(e.carryWeights) != len(e.Set.EdgePairs) {
		e.carryWeights = make([]float64, len(e.Set.EdgePairs))
	}
	weights := e.carryWeights
	for i := range weights {
		weights[i] = 1
	}
	any := false
	for _, s := range withdrawn {
		id, ok := e.Set.EdgeOf[segment.MakePairKey(s.A, s.B)]
		if !ok {
			continue
		}
		weights[id] += s.WernerScale()
		any = true
	}
	if !any {
		return nil
	}
	fo := e.opts.Flow
	fo.CarryWeights = weights
	fo.Arena = &e.carryArena
	sol, err := flow.SolveCtx(nil, e.Set, fo)
	if err != nil {
		return nil
	}
	return sol
}

// UpperBound returns the LP objective, SEE's planning value (see
// sched.Engine.UpperBound). It bounds the fractional plan's expected
// single-pass throughput, not what a slot delivers: ECE's retries over
// redundant segments can establish more.
func (e *Engine) UpperBound() float64 { return e.LP.Objective }
