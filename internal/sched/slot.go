package sched

import (
	"fmt"
	"math/rand"
	"time"

	"see/internal/chaos"
	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/segment"
	"see/internal/state"
	"see/internal/topo"
)

// SlotConfig is the slot-level configuration every engine shares: what the
// Runner needs to label, observe, perturb and stitch a slot. Engine options
// carry one in a single field; internal/engines fills it from its Config.
type SlotConfig struct {
	// Algorithm is the scheme label reported through Engine.Algorithm, the
	// Tracer's SlotStart and EngineState.
	Algorithm Algorithm
	// Tracer observes the slot pipeline; nil means no instrumentation.
	Tracer Tracer
	// Chaos injects deterministic faults into the physical phase (blocked
	// routes, brownouts, memory decoherence); nil or a zero-plan injector
	// leaves the engine byte-identical to a run without any chaos layer.
	Chaos *chaos.Injector
	// FidelityFloors is the per-request minimum delivered end-to-end
	// fidelity. No stitch phase attempts an assembly whose predicted
	// fidelity (qnet.FloorPolicy) misses its pair's floor. Nil or all-zero
	// disables enforcement.
	FidelityFloors *qnet.FloorSpec
	// SwapOrder selects the stitch phase's swap schedule; the zero value
	// (qnet.SwapOrderPath) is the historical left-to-right order.
	SwapOrder qnet.SwapOrder
	// ForecastAvoided is the number of announced elements a fault-aware
	// planner routes around; when positive it is reported every slot as
	// IncidentForecastAvoid.
	ForecastAvoided int
}

// SlotPhases is what an engine supplies to the Runner: its own parts of
// the slot, as methods so the hot path allocates no closures. The Runner
// owns everything in between (see Runner.Run for the order).
type SlotPhases interface {
	// PlanPhase identifies the slot's entanglement paths. It returns false
	// when the engine has no plan phase (REPS), and the Runner then emits
	// no PhasePlan.
	PlanPhase(s *Slot) bool
	// ReservePhase returns the slot's creation plan and, optionally, a
	// held plan whose attempts are reserved alongside but which the engine
	// fires itself in PhysicalHook (Contend's recovery attempts). The
	// Runner trims the creation plan by the withdrawn banked segments and
	// reports both plans' reservations.
	ReservePhase(s *Slot) (plan, held qnet.AttemptPlan, err error)
	// PhysicalHook runs after the planned attempts resolved and memory
	// decoherence hit s.Created, before faults are attributed. It may fire
	// more attempts through s.Attempt.
	PhysicalHook(s *Slot)
	// StitchPhase assembles connections from s.Pool, adds the established
	// ones to s.Result.Connections (StitchFixed and StitchRoutes do) and
	// returns the assembly and floor-rejection counts.
	StitchPhase(s *Slot) (assembled, floorRejected int)
}

// Slot is the state of the slot in flight, handed to every phase method.
// It lives in the Runner and is reused; nothing in it outlives the slot
// except what the SlotResult takes over, which lives until the next slot
// (see SlotResult).
type Slot struct {
	// Rng drives every stochastic outcome of the slot.
	Rng *rand.Rand
	// Result is the slot's report, filled in as the phases run.
	Result *SlotResult
	// Traced is false under a no-op tracer: phases skip work that only
	// feeds tracer callbacks.
	Traced bool
	// Faults is the active chaos injector, or nil.
	Faults qnet.FaultModel
	// ObserveAttempt reports each physical attempt to the tracer; nil when
	// untraced.
	ObserveAttempt qnet.AttemptObserver
	// Withdrawn are the banked segments carried into this slot, oldest
	// first (the bank's own storage).
	Withdrawn []*qnet.Segment
	// Created are the physical phase's realized segments that survived
	// decoherence, in the Runner's slot arena.
	Created []*qnet.Segment
	// Pool is the stitch phase's segment pool: Withdrawn then Created.
	Pool *qnet.Pool

	r *Runner
}

// Runner is the slot skeleton shared by every engine: chaos slot clock and
// fault attribution, the cross-slot bank, the physical phase, connection
// validation, tracing and checkpointing. Engines embed one, supply their
// phases through SlotPhases and call Run from RunSlot. The embedded
// methods implement Stateful.
type Runner struct {
	cfg     SlotConfig
	net     *topo.Network
	tracer  Tracer
	resolve state.CandidateResolver
	bank    *state.Bank

	// Slot storage, reset at each slot's start: the result Run returns,
	// the arena the slot's segments are realized into, and the
	// connections the stitch loops assemble (the first nconn belong to
	// the slot's result; the next one is the assembly in hand). They live
	// until the next Run, which is SlotResult's validity.
	res   SlotResult
	arena qnet.Arena
	conns []*qnet.Connection
	nconn int

	// Reused per-slot state: the slot context, the created-segment list,
	// the pool input (Withdrawn ++ Created), the leftovers deposited in
	// the bank, the segment pool, the stitch loops' shared per-pair
	// connection counters, StitchFixed's hop → pool-index table and
	// live paths, and StitchRoutes' auxiliary graph, its aux-edge →
	// pool-index table, its route's hop indices, its skipped-pair marks
	// and its route search. None of it outlives the slot.
	slot      Slot
	created   []*qnet.Segment
	poolIn    []*qnet.Segment
	leftover  []*qnet.Segment
	pool      *qnet.Pool
	perPair   []int
	hops      hopIndex
	livePaths []livePath
	aux       *graph.Graph
	auxIdx    []int
	// routeHops holds the pool index of each hop of the route in hand.
	routeHops []int
	dead      []bool
	route     routeSearch
	// swapIdx holds the greedy swap order's junction positions.
	swapIdx []int
	// Tracer adapters, bound once so slots allocate no method values.
	observe qnet.AttemptObserver
	swapObs qnet.SwapObserver
}

// NewRunner builds the skeleton of an engine over the network. resolve
// re-links restored banked segments to the engine's candidate catalogue
// (nil for engines without one).
func NewRunner(cfg SlotConfig, net *topo.Network, resolve state.CandidateResolver) Runner {
	tr := OrNop(cfg.Tracer)
	r := Runner{cfg: cfg, net: net, tracer: tr, resolve: resolve, swapObs: tr.SwapResolved}
	if !IsNop(tr) {
		r.observe = func(c *segment.Candidate, ok bool) { tr.AttemptResolved(c.U(), c.V(), ok) }
	}
	return r
}

// Algorithm returns the configured scheme label.
func (r *Runner) Algorithm() Algorithm { return r.cfg.Algorithm }

// Tracer returns the configured tracer (never nil).
func (r *Runner) Tracer() Tracer { return r.tracer }

// AttachBank implements Stateful: it installs the cross-slot segment bank
// (nil detaches, restoring memoryless behavior).
func (r *Runner) AttachBank(b *state.Bank) { r.bank = b }

// Bank implements Stateful.
func (r *Runner) Bank() *state.Bank { return r.bank }

// Run simulates one slot through the engine's phases, in this order:
//
//  1. SlotStart; the chaos slot clock; IncidentForecastAvoid; the bank's
//     boundary decoherence and withdrawal (their incidents).
//  2. PlanPhase, then PhasePlan if the engine has one.
//  3. ReservePhase; the bank trims the creation plan; AttemptReserved for
//     the creation plan then the held plan; PhaseReserve.
//  4. The planned attempts and memory decoherence (Attempt);
//     PhysicalHook; fault, flap and brownout incidents; PhasePhysical.
//  5. StitchPhase over Withdrawn ++ Created, with the per-pair
//     connection counters of StitchFixed and StitchRoutes zeroed; every
//     connection validated and counted; the leftovers deposited;
//     PhaseStitch; SlotEnd.
//
// head carries the engine's fixed fields (LPObjective and any per-slot
// constants); its PerPair and Connections are ignored. The result has
// PerPair sized to pairs. It is the Runner's own, as are its connections
// and their segments: all of it is valid until the next Run. The rng is
// consumed only by the phases and the physical attempts, never by
// tracing.
func (r *Runner) Run(ph SlotPhases, rng *rand.Rand, head SlotResult, pairs int) (*SlotResult, error) {
	tr := r.tracer
	res := r.resetResult(head, pairs)
	r.arena.Reset()
	r.nconn = 0
	s := &r.slot
	*s = Slot{Rng: rng, Result: res, Traced: !IsNop(tr), ObserveAttempt: r.observe, Created: r.created[:0], r: r}
	tr.SlotStart(r.cfg.Algorithm)

	// Chaos: advance the injector's slot clock. With a nil or zero-plan
	// injector Faults stays nil and every fault check short-circuits.
	in := r.cfg.Chaos
	faultsBefore := 0
	var countsBefore chaos.Counts
	if in.Active() {
		countsBefore = in.Counts()
		in.BeginSlot()
		faultsBefore = in.Counts().Total()
		s.Faults = in
	}
	if r.cfg.ForecastAvoided > 0 {
		tr.Incident(IncidentForecastAvoid, r.cfg.ForecastAvoided)
	}
	// Cross-slot state: age out banked segments, then withdraw the
	// survivors. Every bank interaction is gated on an attached bank.
	if r.bank != nil {
		if expired, decohered := r.bank.BeginSlot(); expired+decohered > 0 {
			tr.Incident(IncidentBankDecohered, expired+decohered)
		}
		if s.Withdrawn = r.bank.WithdrawAll(); len(s.Withdrawn) > 0 {
			tr.Incident(IncidentBankWithdraw, len(s.Withdrawn))
		}
	}

	t0 := s.clock()
	if ph.PlanPhase(s) {
		s.phaseDone(PhasePlan, t0)
	}

	t0 = s.clock()
	plan, held, err := ph.ReservePhase(s)
	if err != nil {
		return nil, err
	}
	// Carried segments substitute for planned creation attempts on their
	// endpoint pair. The trim never mutates the engine's cached plan.
	plan, _ = r.bank.TrimPlan(plan, s.Withdrawn)
	res.Attempts = plan.TotalAttempts() + held.TotalAttempts()
	if s.Traced {
		for _, e := range plan {
			tr.AttemptReserved(e.Cand.U(), e.Cand.V(), e.N)
		}
		for _, e := range held {
			tr.AttemptReserved(e.Cand.U(), e.Cand.V(), e.N)
		}
	}
	s.phaseDone(PhaseReserve, t0)

	t0 = s.clock()
	s.Attempt(plan)
	ph.PhysicalHook(s)
	if s.Faults != nil {
		// Brownout denials and flap downs get their own incident kinds; the
		// rest of the slot's delta stays IncidentFault (flap downs are
		// counted by BeginSlot, before the faultsBefore snapshot).
		da := in.Counts().Sub(countsBefore)
		if d := in.Counts().Total() - faultsBefore - da.BrownoutAttemptsLost; d > 0 {
			tr.Incident(IncidentFault, d)
		}
		if da.FlapSlotsDown > 0 {
			tr.Incident(IncidentFlap, da.FlapSlotsDown)
		}
		if da.BrownoutAttemptsLost > 0 {
			tr.Incident(IncidentBrownout, da.BrownoutAttemptsLost)
		}
	}
	s.phaseDone(PhasePhysical, t0)

	// Withdrawn carried segments join the pool ahead of the fresh ones so
	// the oldest photons are consumed preferentially.
	t0 = s.clock()
	r.poolIn = append(append(r.poolIn[:0], s.Withdrawn...), s.Created...)
	if r.pool == nil {
		r.pool = qnet.NewPool(r.poolIn)
	} else {
		r.pool.Reset(r.poolIn)
	}
	s.Pool = r.pool
	if len(r.perPair) != len(res.PerPair) {
		r.perPair = make([]int, len(res.PerPair))
	}
	clear(r.perPair)
	res.Assembled, res.FloorRejected = ph.StitchPhase(s)
	for _, c := range res.Connections {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("sched: %v assembled an invalid connection: %w", r.cfg.Algorithm, err)
		}
		res.Established++
		res.PerPair[c.Pair]++
	}
	// Cross-slot state: bank the unconsumed leftovers (fresh and carried
	// alike) for the next slot, within each node's memory budget. The
	// bank copies them out of the arena.
	if r.bank != nil {
		r.leftover = s.Pool.AppendUnconsumed(r.leftover[:0])
		if accepted := r.bank.Deposit(r.leftover); accepted > 0 {
			tr.Incident(IncidentBankDeposit, accepted)
		}
	}
	s.phaseDone(PhaseStitch, t0)
	tr.SlotEnd(res)
	return res, nil
}

// resetResult empties the Runner's result for a new slot: head's fixed
// fields, PerPair zeroed at length pairs, no connections. PerPair's and
// Connections' backing arrays are kept.
func (r *Runner) resetResult(head SlotResult, pairs int) *SlotResult {
	perPair, conns := r.res.PerPair, r.res.Connections
	if cap(perPair) < pairs {
		perPair = make([]int, pairs)
	}
	perPair = perPair[:pairs]
	clear(perPair)
	r.res = head
	r.res.PerPair, r.res.Connections = perPair, conns[:0]
	return &r.res
}

// Attempt fires a creation plan's attempts (qnet.Arena.Attempt) into the
// Runner's slot arena, counts every realized segment in
// Result.SegmentsCreated, puts the new segments through memory
// decoherence in creation order, and appends the survivors to Created,
// returning them. The physical phase fires the slot's creation plan
// through it; PhysicalHook may fire more (Contend's recovery attempts).
func (s *Slot) Attempt(plan qnet.AttemptPlan) []*qnet.Segment {
	from := len(s.Created)
	s.Created = s.r.arena.Attempt(s.Created, plan, s.Rng, s.Faults, s.ObserveAttempt)
	// SegmentsCreated counts decohered segments too, so it reconciles
	// with the created=true events.
	s.Result.SegmentsCreated += len(s.Created) - from
	kept, _ := qnet.ApplyDecoherence(s.Created[from:], s.Faults)
	s.Created = s.Created[:from+len(kept)]
	s.r.created = s.Created
	return kept
}

// newConn returns the Runner's next free connection, emptied for pair but
// keeping its backing arrays. It joins the slot's result only through
// keep; otherwise the next newConn hands it out again.
func (s *Slot) newConn(pair int) *qnet.Connection {
	r := s.r
	if r.nconn == len(r.conns) {
		r.conns = append(r.conns, new(qnet.Connection))
	}
	// Field by field: truncating a slice in place writes no pointer,
	// where a struct literal would copy all three through write barriers.
	c := r.conns[r.nconn]
	c.Pair, c.Fidelity = pair, 0
	c.Nodes, c.Segments, c.Spares = c.Nodes[:0], c.Segments[:0], c.Spares[:0]
	return c
}

// keep adds the connection newConn last handed out to the slot's result.
func (s *Slot) keep(c *qnet.Connection) {
	s.r.nconn++
	s.Result.Connections = append(s.Result.Connections, c)
}

// clock reads the time for a PhaseDone duration; an untraced slot reads
// no clock, since the no-op tracer discards every duration.
func (s *Slot) clock() time.Time {
	if !s.Traced {
		return time.Time{}
	}
	return time.Now()
}

// phaseDone reports a phase's duration since t0 (from clock) to a real
// tracer.
func (s *Slot) phaseDone(p Phase, t0 time.Time) {
	if s.Traced {
		s.r.tracer.PhaseDone(p, time.Since(t0))
	}
}

// FixedPath is one entanglement path of an engine whose plan is fixed at
// construction (Greedy, Contend): the SD pair it serves, its node sequence
// and the endpoint pair of each segment hop.
type FixedPath struct {
	Commodity int
	Nodes     graph.Path
	Hops      []segment.PairKey
	// PairIDs, if not nil, holds each hop's set-wide pair ID
	// (segment.Candidate.PairID), in Hops' order, so the pool resolves the
	// hop without hashing (qnet.Pool.IndexOfID). An ID of another pair
	// only costs the hashed lookup. SEE and E2E fill it, since
	// StitchFixed resolves their paths on every call; a FixedPlan's hops
	// are resolved again only when the pool learns a pair, so Greedy and
	// Contend leave it nil.
	PairIDs []int
}

// FixedPlan implements SlotPhases for an engine whose paths and creation
// plan are fixed at construction: the plan phase reports the paths, the
// reserve phase hands over the cached plan (every path counts as
// provisioned), and the stitch phase is StitchFixed.
type FixedPlan struct {
	// Paths must not change once the first slot has run: their hops'
	// pool indices are kept across slots.
	Paths []FixedPath
	Plan  qnet.AttemptPlan
	// ConnCap is the per-pair connection cap.
	ConnCap []int

	hops hopIndex
}

// PlanPhase implements SlotPhases: one PathPlanned per fixed path.
func (f *FixedPlan) PlanPhase(s *Slot) bool {
	if s.Traced {
		for _, p := range f.Paths {
			s.r.tracer.PathPlanned(p.Commodity, len(p.Hops))
		}
	}
	return true
}

// ReservePhase implements SlotPhases: one PathProvisioned per fixed path,
// and the cached plan is the slot's creation plan.
func (f *FixedPlan) ReservePhase(s *Slot) (plan, held qnet.AttemptPlan, err error) {
	if s.Traced {
		for _, p := range f.Paths {
			s.r.tracer.PathProvisioned(p.Commodity)
		}
	}
	return f.Plan, nil, nil
}

// PhysicalHook implements SlotPhases; a fixed plan has no physical-phase
// work of its own.
func (f *FixedPlan) PhysicalHook(*Slot) {}

// StitchPhase implements SlotPhases: StitchFixed, with the paths' hop
// indices resolved only when the pool has learned a pair since the last
// slot.
func (f *FixedPlan) StitchPhase(s *Slot) (assembled, floorRejected int) {
	return s.stitchFixed(f.Paths, f.ConnCap, f.hops.resolve(s.Pool, f.Paths))
}

// hopIndex holds the pool index of every hop of a path list, back to
// back in path order (−1 for a pair the pool has never held). A pool
// index never changes once assigned, and Reset keeps every pair, so a
// resolution stays exact for the same pool and paths until the pool
// assigns a new pair. The pool pointer it keeps also keeps that pool
// alive, so no other pool can take its address.
type hopIndex struct {
	pool  *qnet.Pool
	pairs int // pool.NumPairs() at the last resolution
	idx   []int
}

// resolve returns the hop indices of paths in pool, looking them up again
// only if the pool or its pair count changed since the last call.
func (h *hopIndex) resolve(pool *qnet.Pool, paths []FixedPath) []int {
	if h.pool == pool && h.pairs == pool.NumPairs() {
		return h.idx
	}
	return h.lookup(pool, paths)
}

// lookup resolves every hop of paths in pool and records the pool and its
// pair count; resolve keeps its cached case small enough to inline.
func (h *hopIndex) lookup(pool *qnet.Pool, paths []FixedPath) []int {
	h.idx = h.idx[:0]
	for i := range paths {
		p := &paths[i]
		for k, pk := range p.Hops {
			id := -1
			if p.PairIDs != nil {
				id = p.PairIDs[k]
			}
			h.idx = append(h.idx, pool.IndexOfID(id, pk))
		}
	}
	h.pool, h.pairs = pool, pool.NumPairs()
	return h.idx
}

// StitchFixed is the floor-checked stitch loop over fixed paths: sweep the
// paths in order, assembling each one whose hops all have a pooled segment
// (the highest-fidelity one for floored pairs), until a sweep makes no
// progress, so redundant segments retry failed swaps. A path whose best
// composition misses its floor is floor-dead for the rest of the slot.
// Established connections are added to s.Result.Connections.
//
// Swapping is sampled as each connection is assembled: a failed swap
// consumes the connection's segments but leaves its pair eligible, so
// redundant segments back up swap failures. A pair is served until its
// count of connections established this slot, shared with StitchRoutes,
// reaches connCap.
//
// Every hop is resolved to its pool index once per call, which is exact:
// the pool's pairs are fixed within the call, and a pair the pool has
// never held (index −1) has nothing available for the whole call.
func (s *Slot) StitchFixed(paths []FixedPath, connCap []int) (assembled, floorRejected int) {
	s.r.hops.pool = nil // the paths may differ from the last call's
	return s.stitchFixed(paths, connCap, s.r.hops.resolve(s.Pool, paths))
}

// livePath is a path StitchFixed may still assemble: its index and the
// offset of its hops' pool indices.
type livePath struct{ path, hop int }

// stitchFixed is StitchFixed over hopIdx, the hops' pool indices back to
// back in path order.
//
// Each sweep visits only the paths still live, in path order, and drops
// every path it skips, which is exact: a skipped path stays skipped for
// the rest of the call. Availability only falls within it (a floor
// rejection returns only the segments it took), a pair's connection
// count only rises, and a floor-dead path stays dead. So the sweeps
// attempt exactly the paths, in exactly the order, that sweeps over every
// path would.
func (s *Slot) stitchFixed(paths []FixedPath, connCap []int, hopIdx []int) (assembled, floorRejected int) {
	r := s.r
	pool := s.Pool
	perPair := r.perPair
	fp := qnet.NewFloorPolicy(r.cfg.FidelityFloors)
	live := r.livePaths[:0]
	next := 0
	for pi := range paths {
		live = append(live, livePath{path: pi, hop: next})
		next += len(paths[pi].Hops)
	}
	r.livePaths = live
	for {
		progress := false
		kept := live[:0]
		for _, lp := range live {
			p := &paths[lp.path]
			if perPair[p.Commodity] >= connCap[p.Commodity] {
				continue
			}
			hops := hopIdx[lp.hop : lp.hop+len(p.Hops)]
			ok := true
			for _, i := range hops {
				if i < 0 || pool.AvailableAt(i) < 1 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			conn := s.newConn(p.Commodity)
			conn.Nodes = append(conn.Nodes, p.Nodes...)
			for _, i := range hops {
				conn.Segments = append(conn.Segments, fp.TakeAt(pool, p.Commodity, i))
			}
			if fp.Rejects(p.Commodity, conn.Segments) {
				// The path is floor-dead for the rest of the slot.
				for _, seg := range conn.Segments {
					pool.Return(seg)
				}
				floorRejected++
				r.tracer.Incident(IncidentFloorReject, 1)
				continue
			}
			kept = append(kept, lp)
			assembled++
			progress = true
			if s.establish(conn, hops) {
				s.keep(conn)
				perPair[p.Commodity]++
			}
		}
		live = kept
		if !progress {
			return assembled, floorRejected
		}
	}
}

// StitchRoutes is the floor-checked routed stitch loop: round-robin over
// the SD pairs, routing each on the auxiliary graph of the pool's
// remaining segments by shortest path (node weight −ln q, edge weight
// 1e-5 while the endpoint pair has a segment left, 1e9 once it has none),
// until a round makes no progress. It is ECE's second stage (Algorithm 3,
// lines 7–15) after StitchFixed, and all of REPS's path selection. A pair
// whose best route misses its floor is floor-dead for the rest of the
// slot. Swaps are sampled and pairs capped as in StitchFixed, against the
// same per-pair counters.
//
// A pair whose search finds no usable route is skipped for the rest of
// the call too, which is exact: within the call no endpoint pair's
// availability ever rises (takes only shrink it, and Return only undoes
// takes of the same iteration), the aux graph and node weights are fixed,
// so edge weights only rise from 1e-5 to 1e9 and a rejected route stays
// rejected. A search has no side effect (no rng draw, no event), so
// skipping it changes nothing else.
//
// Each search is routeSearch.find, which returns the route of the
// unbounded targeted Dijkstra whenever that route costs less than
// routeRejectThreshold and fails otherwise (DESIGN.md §5b). Every aux edge
// is its own endpoint pair, so each hop is taken by the pool index of the
// edge the search took. Established connections are added to
// s.Result.Connections.
func (s *Slot) StitchRoutes(pairs []topo.SDPair, connCap []int) (assembled, floorRejected int) {
	r := s.r
	pool := s.Pool
	perPair := r.perPair
	fp := qnet.NewFloorPolicy(r.cfg.FidelityFloors)
	if r.aux == nil {
		r.route.init(r.net.SwapProb)
		r.aux = graph.New(r.net.NumNodes())
	}
	// One aux edge per endpoint pair with a segment left, rebuilt in place
	// over the previous slot's backing arrays; auxIdx maps each edge to
	// its pair's pool index.
	aux := r.aux
	aux.Reset()
	auxIdx := r.auxIdx[:0]
	for _, pi := range pool.SortedIndices() {
		if pool.AvailableAt(pi) > 0 {
			pk := pool.KeyAt(pi)
			aux.AddEdge(pk.U, pk.V, routeAvailableWeight)
			auxIdx = append(auxIdx, pi)
		}
	}
	r.auxIdx = auxIdx
	// dead marks pairs skipped for the rest of the call: no usable route,
	// or a best route that missed the floor.
	if cap(r.dead) < len(pairs) {
		r.dead = make([]bool, len(pairs))
	}
	dead := r.dead[:len(pairs)]
	clear(dead)
	for {
		progress := false
		for i, sd := range pairs {
			if perPair[i] >= connCap[i] || dead[i] {
				continue
			}
			if !r.route.find(aux, sd.S, sd.D, pool, auxIdx) {
				dead[i] = true
				continue
			}
			conn := s.newConn(i)
			path := r.route.appendPath(conn.Nodes, sd.S, sd.D)
			conn.Nodes = path
			hops := r.routeHops[:0]
			ok := true
			for h := 1; h < len(path); h++ {
				pi := auxIdx[r.route.prevEdge[path[h]]]
				hops = append(hops, pi)
				seg := fp.TakeAt(pool, i, pi)
				if seg == nil {
					// Unreachable while the weights are consistent.
					ok = false
					break
				}
				conn.Segments = append(conn.Segments, seg)
			}
			r.routeHops = hops
			if !ok {
				for _, seg := range conn.Segments {
					pool.Return(seg)
				}
				continue
			}
			if fp.Rejects(i, conn.Segments) {
				for _, seg := range conn.Segments {
					pool.Return(seg)
				}
				dead[i] = true
				floorRejected++
				r.tracer.Incident(IncidentFloorReject, 1)
				continue
			}
			assembled++
			progress = true
			if s.establish(conn, hops) {
				s.keep(conn)
				perPair[i]++
			}
		}
		if !progress {
			return assembled, floorRejected
		}
	}
}

// establish samples an assembled connection's swaps from the slot's pool,
// whose index of each hop's pair is in hops, in the configured swap order
// and reports the assembly to the tracer.
func (s *Slot) establish(conn *qnet.Connection, hops []int) bool {
	r := s.r
	ok := conn.EstablishOrderedObserved(r.net, s.Pool, hops, s.Rng, r.swapObs, r.cfg.SwapOrder, &r.swapIdx)
	r.tracer.ConnectionAssembled(conn.Pair, ok)
	return ok
}

// EngineState implements Stateful: an engine's only cross-slot state
// is the chaos injector's phase and the bank's contents (candidates, LPs
// and plans rebuild deterministically from construction).
func (r *Runner) EngineState() (*EngineState, error) {
	return &EngineState{
		Algorithm: r.cfg.Algorithm,
		Chaos:     r.cfg.Chaos.State(),
		Bank:      r.bank.State(),
	}, nil
}

// RestoreEngineState implements Stateful. It validates before it
// commits: a snapshot the injector or the bank would reject (a fault-plan
// mismatch, a banked route missing from the catalogue) returns an error
// and leaves the engine exactly as it was.
func (r *Runner) RestoreEngineState(st *EngineState) error {
	if err := CheckRestoreAlgorithm(r.cfg.Algorithm, st); err != nil {
		return err
	}
	var chaosSt *chaos.InjectorState
	var bankSt *state.BankState
	if st != nil {
		chaosSt, bankSt = st.Chaos, st.Bank
	}
	if err := r.cfg.Chaos.CheckRestore(chaosSt); err != nil {
		return fmt.Errorf("sched: %w", err)
	}
	if err := r.bank.Restore(bankSt, r.resolve); err != nil {
		return fmt.Errorf("sched: %w", err)
	}
	return r.cfg.Chaos.Restore(chaosSt)
}
