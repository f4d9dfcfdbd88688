// Package contend implements a contention-aware routing engine in the
// spirit of Q-CAST (Shi & Qian, SIGCOMM 2020): instead of the LP the paper
// solves, each SD pair gets a small catalogue of candidate entanglement
// paths on the segment graph, every candidate is scored by an
// expected-throughput metric E(ℓ) built from the paper's primitives —
// segment creation probability p^k_uv, swap success q_u and the attempt
// width the residual channels c_uv and memories m_u can still support —
// and paths are accepted best-score-first with explicit contention
// accounting: an accepted path decrements the residual channel capacity of
// every fibre link its realizations cross and the residual memory of every
// segment endpoint, so later candidates are scored against what is
// actually left.
//
// On top of the primary plan the engine reserves *recovery* attempts
// (Q-CAST's recovery paths, collapsed to the segment level): for each
// planned hop, one attempt on the next-best physical realization of the
// same endpoint pair. Recovery attempts fire only in the physical phase
// and only for hops whose primary attempts all failed, converting some
// single-hop bad luck into established connections instead of lost paths.
// Recovery activations are reported as sched.IncidentRecovery.
//
// Like the greedy engine, planning is deterministic and happens once at
// construction: RunSlot consumes the rng only for the physical phase,
// recovery attempts and swaps, so a fixed rng state reproduces the slot.
package contend

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"see/internal/graph"
	"see/internal/par"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
)

// pathsPerPair is the number of candidate entanglement paths scored per
// SD pair (Yen on the segment graph).
const pathsPerPair = 5

// infeasibleWeight prices an infeasible element in the candidate-path
// enumeration on the segment graph, as in the greedy engine's pricing.
const infeasibleWeight = 1e12

// Options tunes the contention-aware engine. The candidate set and the
// per-pair caps are New's arguments: internal/engines decides both for
// every scheme.
type Options struct {
	// RecoveryAttempts is the number of creation attempts reserved on the
	// recovery realization of each planned hop (default 1; 0 disables
	// recovery paths entirely).
	RecoveryAttempts int
	// Slot is the slot-level configuration the shared sched.Runner
	// applies: sched.Contend, or the fault-aware (sched.ContendAware) and
	// offline (sched.QPass) variants built in internal/engines.
	Slot sched.SlotConfig
	// PlanChannels / PlanMemory, when non-nil, replace the network's
	// capacity tables as the starting residuals of the selection loop, so
	// announced outages and brownouts are subtracted from c_uv and m_u
	// before any candidate is scored. The physical phase keeps the true
	// topology. See core.Options.
	PlanChannels []int
	PlanMemory   []int
	// Offline switches planning to the Q-PASS-style offline mode: every
	// candidate path is scored once against the full fault-free topology
	// (no contention re-scoring), paths are provisioned in round-robin
	// sweeps over the SD pairs by static score with all-or-nothing
	// charging, and the forecast is never consulted. The contrast baseline
	// for the fault-aware variants.
	Offline bool
	// Workers bounds the goroutines enumerating the per-pair candidate
	// paths (0 = GOMAXPROCS, 1 = serial). The plan is identical at any
	// value.
	Workers int
}

// DefaultOptions returns the contention-aware defaults.
func DefaultOptions() Options {
	return Options{RecoveryAttempts: 1, Slot: sched.SlotConfig{Algorithm: sched.Contend}}
}

// hop is one planned segment of a selected path: the endpoint pair, the
// primary realization with its attempt count, and the optional recovery
// realization fired only when every primary attempt fails.
type hop struct {
	pair     segment.PairKey
	cand     *segment.Candidate
	attempts int
	// recovery is the next-best realization of the same endpoint pair
	// (nil when none fits the residual resources); recAttempts is its
	// reserved attempt budget.
	recovery    *segment.Candidate
	recAttempts int
}

// plannedPath is one accepted entanglement path with its score at
// acceptance time.
type plannedPath struct {
	commodity int
	nodes     graph.Path
	hops      []hop
	score     float64
}

// Engine runs contention-aware time slots over a fixed network and
// workload.
type Engine struct {
	Net   *topo.Network
	Pairs []topo.SDPair
	Set   *segment.Set
	// ConnCap is the per-pair connection cap min(m_s, m_d).
	ConnCap []int

	// Runner is the shared slot skeleton; the engine supplies its fixed
	// primary and recovery plans and the recovery pass as its phases.
	sched.Runner

	paths    []plannedPath
	fixed    sched.FixedPlan
	recovery qnet.AttemptPlan
	expected float64
	opts     Options
	// avail is the recovery pass's reusable segment count per endpoint
	// pair, indexed by the set's pair index (segment.Candidate.PairID).
	avail []int
}

var _ sched.Stateful = (*Engine)(nil)

// New fixes the contention-aware plan over the candidate set, with
// connCap as the per-pair caps N_i. Like the greedy engine it solves no
// LP, so construction needs no context/budget variant.
func New(set *segment.Set, connCap []int, opts Options) (*Engine, error) {
	e := &Engine{
		Net:     set.Net,
		Pairs:   set.Pairs,
		Set:     set,
		ConnCap: connCap,
		Runner:  sched.NewRunner(opts.Slot, set.Net, set.CandidateFor),
		opts:    opts,
		avail:   make([]int, len(set.EdgePairs)),
	}
	if err := e.buildPlan(); err != nil {
		return nil, fmt.Errorf("contend: planning: %w", err)
	}
	e.fixed.ConnCap = connCap
	var primary, recovery qnet.PlanBuilder
	for _, pp := range e.paths {
		fp := sched.FixedPath{Commodity: pp.commodity, Nodes: pp.nodes}
		for _, h := range pp.hops {
			fp.Hops = append(fp.Hops, h.pair)
			primary.Add(h.cand, h.attempts)
			if h.recovery != nil {
				recovery.Add(h.recovery, h.recAttempts)
			}
		}
		e.fixed.Paths = append(e.fixed.Paths, fp)
	}
	e.fixed.Plan, e.recovery = primary.Plan(), recovery.Plan()
	return e, nil
}

// candidatePaths enumerates the per-pair candidate entanglement paths on
// the segment graph (Yen K shortest under the static attempt-cost metric
// with −ln q node weights, the same weights the greedy planner routes
// with). The metric is static, so each segment-graph edge's cost is
// computed once per build and looked up by edge ID. The pairs are
// enumerated on up to opts.Workers goroutines, each writing only
// its own slot, so the result is the serial one.
func (e *Engine) candidatePaths() [][]graph.Path {
	nodeWeight := func(u int) float64 {
		q := e.Net.SwapProb[u]
		if q <= 0 {
			return infeasibleWeight
		}
		return -math.Log(q)
	}
	edgeCost := make([]float64, len(e.Set.EdgePairs))
	for id, pk := range e.Set.EdgePairs {
		best := math.Inf(1)
		for _, c := range e.Set.ByPair[pk] {
			if cost := segment.AttemptFactor(e.Net, c); cost < best {
				best = cost
			}
		}
		if math.IsInf(best, 1) {
			best = infeasibleWeight
		}
		edgeCost[id] = best
	}
	edgeWeight := func(id int, _ float64) float64 { return edgeCost[id] }
	out := make([][]graph.Path, len(e.Pairs))
	par.For(e.opts.Workers, len(e.Pairs), func(i int) {
		out[i] = graph.YenKShortest(e.Set.SegGraph, e.Pairs[i].S, e.Pairs[i].D, pathsPerPair, graph.DijkstraOptions{
			NodeWeight: nodeWeight,
			EdgeWeight: edgeWeight,
		})
	})
	return out
}

// scorePath evaluates the expected-throughput metric of a candidate path
// under the ledger's residual resources:
//
//	E(ℓ) = Π_hops (1 − (1 − p^k_uv)^{n_h}) · Π_junctions q_u
//
// where n_h = min(⌈1/p⌉, residual width) is the attempt budget hop h would
// get, with each hop priced on its cheapest still-feasible realization. It
// returns the score and the concrete hop plan (nil when any hop has no
// feasible realization). Hop reservations within one path compound (a
// path may revisit a node's memory), so each hop is reserved as it is
// scored and all are released before returning: the ledger ends as it
// began.
func (e *Engine) scorePath(l *qnet.Ledger, nodes graph.Path) (float64, []hop, error) {
	score := 1.0
	hops := make([]hop, 0, len(nodes)-1)
	for i := 0; i+1 < len(nodes); i++ {
		pk := segment.MakePairKey(nodes[i], nodes[i+1])
		cand, _ := l.Cheapest(e.Net, e.Set.ByPair[pk], nil)
		if cand == nil {
			return 0, nil, releaseHops(l, hops)
		}
		n := l.Width(cand, int(math.Ceil(1/cand.Prob)))
		if err := l.Reserve(cand, n); err != nil {
			return 0, nil, err
		}
		score *= 1 - math.Pow(1-cand.Prob, float64(n))
		hops = append(hops, hop{pair: pk, cand: cand, attempts: n})
	}
	if err := releaseHops(l, hops); err != nil {
		return 0, nil, err
	}
	for j := 1; j+1 < len(nodes); j++ {
		score *= e.Net.SwapProb[nodes[j]]
	}
	return score, hops, nil
}

// reserveHops charges every hop at its full width or, when some hop no
// longer fits, releases what it charged and reports false.
func reserveHops(l *qnet.Ledger, hops []hop) (bool, error) {
	for k, h := range hops {
		if l.Width(h.cand, h.attempts) < h.attempts {
			return false, releaseHops(l, hops[:k])
		}
		if err := l.Reserve(h.cand, h.attempts); err != nil {
			return false, err
		}
	}
	return true, nil
}

// releaseHops returns the hops' primary attempts to the ledger.
func releaseHops(l *qnet.Ledger, hops []hop) error {
	for _, h := range hops {
		if err := l.Release(h.cand, h.attempts); err != nil {
			return err
		}
	}
	return nil
}

// reserveRecovery accepts a path whose primary hops the ledger already
// holds: each hop reserves its recovery attempts on the cheapest other
// realization of its pair that still fits, within whatever remains.
func (e *Engine) reserveRecovery(l *qnet.Ledger, pp plannedPath, hops []hop) error {
	for _, h := range hops {
		if e.opts.RecoveryAttempts > 0 {
			if rec, _ := l.Cheapest(e.Net, e.Set.ByPair[h.pair], h.cand); rec != nil {
				n := l.Width(rec, e.opts.RecoveryAttempts)
				if err := l.Reserve(rec, n); err != nil {
					return err
				}
				h.recovery, h.recAttempts = rec, n
			}
		}
		pp.hops = append(pp.hops, h)
	}
	e.paths = append(e.paths, pp)
	return nil
}

// buildPlan is the contention-aware selection loop: every unsaturated
// pair's candidate paths are re-scored against the residual resources of a
// ledger over the planning capacities (the forecast-shrunk overrides when
// set), the globally best-scoring path is accepted, its hops (primary +
// recovery) are reserved, and the loop repeats until no candidate has
// positive score. Ties break deterministically on (pair index, candidate
// index). A ledger error is a bug and is returned.
func (e *Engine) buildPlan() error {
	if e.opts.Offline {
		return e.buildPlanOffline()
	}
	l := qnet.NewLedgerWithCapacities(e.Net, e.opts.PlanChannels, e.opts.PlanMemory)
	cands := e.candidatePaths()
	planned := make([]int, len(e.Pairs))
	for {
		bestScore := 0.0
		bestPair, bestIdx := -1, -1
		var bestHops []hop
		for i := range e.Pairs {
			if planned[i] >= e.ConnCap[i] {
				continue
			}
			for j, nodes := range cands[i] {
				score, hops, err := e.scorePath(l, nodes)
				if err != nil {
					return err
				}
				if score > bestScore {
					bestScore, bestPair, bestIdx, bestHops = score, i, j, hops
				}
			}
		}
		if bestPair < 0 || bestScore <= 0 {
			break
		}
		if ok, err := reserveHops(l, bestHops); !ok || err != nil {
			return errors.Join(errors.New("the best-scored path no longer fits"), err)
		}
		pp := plannedPath{commodity: bestPair, nodes: cands[bestPair][bestIdx], score: bestScore}
		if err := e.reserveRecovery(l, pp, bestHops); err != nil {
			return err
		}
		planned[bestPair]++
	}
	return e.finishPlan(l)
}

// finishPlan sums the accepted paths' scores into the plan's expected
// value and checks the ledger's invariants.
func (e *Engine) finishPlan(l *qnet.Ledger) error {
	for _, pp := range e.paths {
		e.expected += pp.score
	}
	return l.Validate()
}

// buildPlanOffline fixes the Q-PASS-style offline plan. Candidate paths
// are scored exactly once against the full fault-free topology — the
// offline planner re-scores nothing against residual state — then
// provisioned in round-robin sweeps over the SD pairs (one path per
// unsaturated pair per sweep, best static score first). A path is accepted
// only if the residual resources still fit the pre-computed widths of all
// its hops (all-or-nothing), and per-hop recovery attempts are reserved up
// front like the online planner's. The fault forecast is deliberately
// ignored: this is the contrast baseline the fault-aware variants are
// measured against.
func (e *Engine) buildPlanOffline() error {
	l := qnet.NewLedger(e.Net)
	cands := e.candidatePaths()
	type offlinePath struct {
		nodes graph.Path
		hops  []hop
		score float64
	}
	scored := make([][]offlinePath, len(e.Pairs))
	for i := range e.Pairs {
		for _, nodes := range cands[i] {
			score, hops, err := e.scorePath(l, nodes)
			if err != nil {
				return err
			}
			if score <= 0 {
				continue
			}
			scored[i] = append(scored[i], offlinePath{nodes: nodes, hops: hops, score: score})
		}
		list := scored[i]
		sort.SliceStable(list, func(a, b int) bool { return list[a].score > list[b].score })
	}

	planned := make([]int, len(e.Pairs))
	for {
		progress := false
		for i := range e.Pairs {
			if planned[i] >= e.ConnCap[i] {
				continue
			}
			for _, op := range scored[i] {
				ok, err := reserveHops(l, op.hops)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				pp := plannedPath{commodity: i, nodes: op.nodes, score: op.score}
				if err := e.reserveRecovery(l, pp, op.hops); err != nil {
					return err
				}
				planned[i]++
				progress = true
				break
			}
		}
		if !progress {
			break
		}
	}
	return e.finishPlan(l)
}

// RunSlot simulates one time slot: attempt the fixed primary plan, fire
// reserved recovery attempts for hops whose primaries all failed, then
// assemble the planned paths from realized segments (retrying on redundant
// segments like the other engines).
func (e *Engine) RunSlot(rng *rand.Rand) (*sched.SlotResult, error) {
	return e.Run(e, rng, sched.SlotResult{
		LPObjective:      e.expected,
		PlannedPaths:     len(e.paths),
		ProvisionedPaths: len(e.paths),
	}, len(e.Pairs))
}

// PlanPhase implements sched.SlotPhases: the fixed paths.
func (e *Engine) PlanPhase(s *sched.Slot) bool { return e.fixed.PlanPhase(s) }

// ReservePhase implements sched.SlotPhases: the fixed primary plan, with
// the recovery attempts held in reserve for PhysicalHook.
func (e *Engine) ReservePhase(s *sched.Slot) (plan, held qnet.AttemptPlan, err error) {
	plan, _, err = e.fixed.ReservePhase(s)
	return plan, e.recovery, err
}

// PhysicalHook implements sched.SlotPhases with the recovery pass: count
// the surviving segments per endpoint pair (withdrawn carried segments
// count too) and fire the reserved recovery attempts of hops left with
// nothing, in deterministic path order. Recovery segments face the same
// decoherence stream.
func (e *Engine) PhysicalHook(s *sched.Slot) {
	avail := e.avail
	clear(avail)
	for _, seg := range s.Withdrawn {
		e.count(seg)
	}
	for _, seg := range s.Created {
		e.count(seg)
	}
	recoveryFired := 0
	for _, pp := range e.paths {
		for _, h := range pp.hops {
			// A hop's candidates are the set's own, so PairID indexes
			// avail; the recovery realization shares the hop's pair.
			if h.recovery == nil || avail[h.cand.PairID] > 0 {
				continue
			}
			recoveryFired += h.recAttempts
			avail[h.cand.PairID] += len(s.Attempt(qnet.AttemptPlan{{Cand: h.recovery, N: h.recAttempts}}))
		}
	}
	if recoveryFired > 0 {
		e.Tracer().Incident(sched.IncidentRecovery, recoveryFired)
	}
}

// count adds a pooled segment to avail. A segment whose candidate is the
// set's own is counted by its PairID; any other (a restored segment
// without one) by its pair's key, if the set has the pair at all.
func (e *Engine) count(seg *qnet.Segment) {
	if c := seg.Cand; c != nil && c.PairID < len(e.Set.EdgePairs) && e.Set.EdgePairs[c.PairID] == seg.Pair() {
		e.avail[c.PairID]++
	} else if id, ok := e.Set.EdgeOf[seg.Pair()]; ok {
		e.avail[id]++
	}
}

// StitchPhase implements sched.SlotPhases: the fixed paths.
func (e *Engine) StitchPhase(s *sched.Slot) (assembled, floorRejected int) {
	return e.fixed.StitchPhase(s)
}

// UpperBound returns the heuristic expected established count of the fixed
// plan (not an LP bound — the engine solves none).
func (e *Engine) UpperBound() float64 { return e.expected }
