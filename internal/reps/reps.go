// Package reps implements the REPS baseline (Zhao & Qiao, "Redundant
// Entanglement Provisioning and Selection for Throughput Maximization in
// Quantum Networks", INFOCOM 2021) as used for comparison in the SEE paper:
// entanglement links only (single-hop segments), redundant provisioning via
// an LP with progressive rounding, and post-realization path selection with
// round-robin fairness.
//
// The provisioning LP is the same formulation-(1) relaxation solved by
// internal/flow, restricted to single-hop candidates. Progressive rounding
// re-solves the LP on residual capacities a bounded number of times (the
// SEE paper itself criticizes REPS's one-LP-per-variable schedule as too
// slow; see DESIGN.md §2 for the substitution note).
package reps

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"see/internal/flow"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/warm"
)

// Options tunes REPS.
type Options struct {
	// KPaths is the Yen path budget per SD pair (default 5).
	KPaths int
	// RoundingSolves caps the LP re-solves of progressive rounding
	// (default 6).
	RoundingSolves int
	// Flow tunes the underlying LP solves.
	Flow flow.Options
	// Slot is the slot-level configuration the shared sched.Runner
	// applies; REPS always reports sched.REPS whatever its Algorithm says.
	Slot sched.SlotConfig
	// Warm, when non-nil, memoizes the link-candidate set and every
	// progressive-rounding LP solution across engine (re)builds over the
	// same network (see internal/warm and the matching field in
	// core.Options). Bypassed for budgeted construction (non-nil ctx).
	Warm *warm.Cache
}

func (o Options) withDefaults() Options {
	if o.KPaths <= 0 {
		o.KPaths = 5
	}
	if o.RoundingSolves <= 0 {
		o.RoundingSolves = 6
	}
	return o
}

// Engine runs REPS time slots over a fixed network and workload. Like the
// SEE engine, provisioning depends only on the static topology and is
// computed once.
type Engine struct {
	Net   *topo.Network
	Pairs []topo.SDPair
	Set   *segment.Set
	// Plan is the provisioning result: integer entanglement-link creation
	// attempts per link (x̂ in the REPS paper).
	Plan qnet.AttemptPlan
	// LPObjective is the fractional ELP optimum.
	LPObjective float64
	// ConnCap is the per-pair connection cap.
	ConnCap []int

	// Runner is the shared slot skeleton; the engine supplies its fixed
	// link plan and EPS as its phases.
	sched.Runner

	opts Options
}

var (
	_ sched.Stateful       = (*Engine)(nil)
	_ sched.Checkpointable = (*Engine)(nil)
)

// NewEngine provisions entanglement links for the workload.
func NewEngine(net *topo.Network, pairs []topo.SDPair, opts Options) (*Engine, error) {
	return NewEngineCtx(nil, net, pairs, opts)
}

// NewEngineCtx is NewEngine with the provisioning LP solves bounded by a
// context (nil = never cancelled); see core.NewEngineCtx.
func NewEngineCtx(ctx context.Context, net *topo.Network, pairs []topo.SDPair, opts Options) (*Engine, error) {
	if net == nil {
		return nil, errors.New("reps: nil network")
	}
	if len(pairs) == 0 {
		return nil, errors.New("reps: no SD pairs")
	}
	opts = opts.withDefaults()
	segOpts := segment.DefaultOptions()
	segOpts.KPaths = opts.KPaths
	segOpts.MaxSegmentHops = 1 // entanglement links only
	segOpts.MinProb = 0
	// Budgeted construction bypasses the warm cache (see core.NewEngineCtx).
	set, err := opts.Warm.SegmentSet(ctx, net, pairs, segOpts)
	if err != nil {
		return nil, fmt.Errorf("reps: building link candidates: %w", err)
	}
	connCap := opts.Flow.ConnCap
	if connCap == nil {
		connCap = make([]int, len(pairs))
		for i, sd := range pairs {
			connCap[i] = min(net.Memory[sd.S], net.Memory[sd.D])
		}
	}
	opts.Slot.Algorithm = sched.REPS
	e := &Engine{
		Net:     net,
		Pairs:   pairs,
		Set:     set,
		ConnCap: connCap,
		Runner:  sched.NewRunner(opts.Slot, net, set.CandidateFor),
		opts:    opts,
	}
	if err := e.provision(ctx); err != nil {
		return nil, err
	}
	return e, nil
}

// provision runs the ELP + progressive rounding to fix the attempt plan.
func (e *Engine) provision(ctx context.Context) error {
	var plan qnet.PlanBuilder
	ledger := qnet.NewLedger(e.Net)
	// The rounding rounds re-solve over the same candidate set with only
	// the residual capacities changing, so one arena carries the solver's
	// capacity-independent tables, its master simplex buffers and its
	// pricing scratch across all of them; a warm cache additionally
	// replays whole solutions across engine rebuilds.
	arena := &flow.Arena{}

	// commit reserves up to n attempts over c (as many as the residual
	// capacities fit) and returns how many were committed.
	commit := func(c *segment.Candidate, n int) (int, error) {
		n = ledger.Width(c, n)
		if n <= 0 {
			return 0, nil
		}
		if err := ledger.Reserve(c, n); err != nil {
			return 0, fmt.Errorf("reps: provisioning: %w", err)
		}
		plan.Add(c, n)
		return n, nil
	}

	for round := 0; round < e.opts.RoundingSolves; round++ {
		fopts := e.opts.Flow
		fopts.ConnCap = e.ConnCap
		fopts.Channels, fopts.Memory = ledger.Free()
		fopts.Arena = arena
		sol, err := e.opts.Warm.Solve(ctx, e.Set, fopts)
		if err != nil {
			return fmt.Errorf("reps: provisioning LP: %w", err)
		}
		if round == 0 {
			e.LPObjective = sol.Objective
		}
		if sol.Objective < 1e-6 {
			break
		}
		frac := fractionalAttempts(e.Net, sol)
		committed := 0
		// Commit the integral parts of every variable first.
		for _, fa := range frac {
			n, err := commit(fa.cand, int(math.Floor(fa.x+1e-9)))
			if err != nil {
				return err
			}
			committed += n
		}
		if committed == 0 {
			// Nothing integral left: round the largest fractional up,
			// one variable per LP solve, as in REPS.
			rounded := false
			for _, fa := range frac {
				if fa.x <= 1e-6 {
					continue
				}
				n, err := commit(fa.cand, 1)
				if err != nil {
					return err
				}
				if n == 1 {
					rounded = true
					break
				}
			}
			if !rounded {
				break
			}
		}
	}

	// Redundant provisioning — the "R" in REPS: saturate the residual
	// channels and memory with extra attempts on the links the LP used,
	// so that individual link failures do not break whole paths. Links
	// with the fewest attempts are topped up first: availability
	// 1−(1−p)^x has strongly diminishing returns in x, so equalizing x
	// maximizes the probability that whole paths survive.
	if planned := plan.Plan(); len(planned) > 0 {
		used := make([]*segment.Candidate, 0, len(planned))
		for _, en := range planned {
			used = append(used, en.Cand)
		}
		for {
			sort.Slice(used, func(i, j int) bool {
				if ni, nj := plan.Count(used[i]), plan.Count(used[j]); ni != nj {
					return ni < nj
				}
				return segment.KeyLess(used[i].Path, used[j].Path)
			})
			committed := 0
			for _, c := range used {
				n, err := commit(c, 1)
				if err != nil {
					return err
				}
				committed += n
			}
			if committed == 0 {
				break
			}
		}
	}
	e.Plan = plan.Plan()
	if err := ledger.Validate(); err != nil {
		return fmt.Errorf("reps: provisioning: %w", err)
	}
	return nil
}

type fracAttempt struct {
	cand *segment.Candidate
	x    float64
}

// fractionalAttempts converts LP path flows into fractional per-link
// attempt counts x, sorted by decreasing fractional part (rounding
// priority).
func fractionalAttempts(net *topo.Network, sol *flow.Solution) []fracAttempt {
	acc := make(map[*segment.Candidate]float64)
	for _, pf := range sol.Paths {
		for _, hop := range pf.Hops {
			c := hop.Cand
			qu := net.SwapProb[c.Path[0]]
			qv := net.SwapProb[c.Path[len(c.Path)-1]]
			den := c.Prob * math.Sqrt(qu*qv)
			if den <= 1e-12 {
				continue
			}
			acc[c] += pf.Flow / den
		}
	}
	out := make([]fracAttempt, 0, len(acc))
	for c, x := range acc {
		out = append(out, fracAttempt{cand: c, x: x})
	}
	sort.Slice(out, func(i, j int) bool {
		fi := out[i].x - math.Floor(out[i].x)
		fj := out[j].x - math.Floor(out[j].x)
		if fi != fj {
			return fi > fj
		}
		if out[i].x != out[j].x {
			return out[i].x > out[j].x
		}
		return segment.KeyLess(out[i].cand.Path, out[j].cand.Path)
	})
	return out
}

// RunSlot simulates one time slot: attempt the provisioned links, then
// select entanglement paths on the realized link graph (EPS). The
// provisioning plan is fixed at construction, so there is no plan phase
// and the reserve phase just re-commits it; PlannedPaths and
// ProvisionedPaths stay zero — REPS plans links, not entanglement paths.
func (e *Engine) RunSlot(rng *rand.Rand) (*sched.SlotResult, error) {
	return e.Run(e, rng, &sched.SlotResult{
		LPObjective: e.LPObjective,
		PerPair:     make([]int, len(e.Pairs)),
	})
}

// PlanPhase implements sched.SlotPhases: REPS has no per-slot plan phase.
func (e *Engine) PlanPhase(*sched.Slot) bool { return false }

// ReservePhase implements sched.SlotPhases: the provisioning plan (never
// mutated; the runner's bank trim copies on write).
func (e *Engine) ReservePhase(*sched.Slot) (plan, held qnet.AttemptPlan, err error) {
	return e.Plan, nil, nil
}

// PhysicalHook implements sched.SlotPhases; REPS adds nothing to the
// physical phase.
func (e *Engine) PhysicalHook(*sched.Slot) {}

// StitchPhase implements sched.SlotPhases with EPS: round-robin over SD
// pairs, repeatedly routing each on the realized entanglement links via
// shortest path with junction weight −ln q, until no pair can be served
// (sched.Slot.StitchRoutes, the routed stage SEE's ECE shares). Swapping
// is sampled per assembled connection; a failure consumes the links but
// the pair stays eligible, so redundant links back up failed swaps.
func (e *Engine) StitchPhase(s *sched.Slot) ([]*qnet.Connection, int, int) {
	return s.StitchRoutes(e.Pairs, e.ConnCap)
}

// UpperBound returns the provisioning LP optimum.
func (e *Engine) UpperBound() float64 { return e.LPObjective }
