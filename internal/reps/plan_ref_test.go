package reps

// The pre-ledger REPS provisioning, kept verbatim (renamed with a
// Reference suffix) as the reference the ledger-based provision is pinned
// to: its commit closure hand-rolls the residual channel and memory
// tables.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"see/internal/flow"
	"see/internal/qnet"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/warm"
	"see/internal/xrand"
)

// provisionReference runs the ELP + progressive rounding to fix the attempt plan.
func (e *Engine) provisionReference(ctx context.Context) error {
	var plan qnet.PlanBuilder
	channels := append([]int(nil), e.Net.Channels...)
	memory := append([]int(nil), e.Net.Memory...)
	// The rounding rounds re-solve over the same candidate set with only
	// the residual capacities changing, so one arena carries the solver's
	// capacity-independent tables, its master simplex buffers and its
	// pricing scratch across all of them; a warm cache additionally
	// replays whole solutions across engine rebuilds.
	useWarm := e.opts.Warm != nil && ctx == nil
	arena := &flow.Arena{}

	// commit reserves up to n attempts over c (as many as the residual
	// capacities fit) and returns how many were committed.
	commit := func(c *segment.Candidate, n int) int {
		if n <= 0 {
			return 0
		}
		for _, eid := range c.EdgeIDs {
			if channels[eid] < n {
				n = channels[eid]
			}
		}
		u, v := c.Path[0], c.Path[len(c.Path)-1]
		if memory[u] < n {
			n = memory[u]
		}
		if memory[v] < n {
			n = memory[v]
		}
		if n <= 0 {
			return 0
		}
		for _, eid := range c.EdgeIDs {
			channels[eid] -= n
		}
		memory[u] -= n
		memory[v] -= n
		plan.Add(c, n)
		return n
	}

	for round := 0; round < e.opts.RoundingSolves; round++ {
		fopts := e.opts.Flow
		fopts.ConnCap = e.ConnCap
		fopts.Channels = channels
		fopts.Memory = memory
		fopts.Arena = arena
		var sol *flow.Solution
		var err error
		if useWarm {
			sol, err = e.opts.Warm.Solve(nil, e.Set, fopts)
		} else {
			sol, err = flow.SolveCtx(ctx, e.Set, fopts)
		}
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
			committed += commit(fa.cand, int(math.Floor(fa.x+1e-9)))
		}
		if committed == 0 {
			// Nothing integral left: round the largest fractional up,
			// one variable per LP solve, as in REPS.
			rounded := false
			for _, fa := range frac {
				if fa.x > 1e-6 && commit(fa.cand, 1) == 1 {
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
				committed += commit(c, 1)
			}
			if committed == 0 {
				break
			}
		}
	}
	e.Plan = plan.Plan()
	return nil
}

// TestProvisionMatchesReference pins the ledger-based provisioning to the
// hand-rolled reference on random instances: 50–300 nodes, 2–7 channels
// per link, jittered channels and memories, 1–6 rounding solves. The
// attempt plan and the LP objective must match bit for bit. Both runs
// share one warm cache, so the reference replays the LP solutions of
// identical residual capacities instead of re-solving them.
func TestProvisionMatchesReference(t *testing.T) {
	instances := 50
	if testing.Short() {
		instances = 8
	}
	attempts := 0
	for k := 0; k < instances; k++ {
		rng := xrand.New(int64(900 + k))
		cfg := topo.DefaultConfig()
		cfg.Nodes = 50 + rng.Intn(251)
		cfg.Channels = 2 + rng.Intn(6)
		cfg.ChannelJitter = rng.Intn(cfg.Channels)
		cfg.MemoryJitter = rng.Intn(cfg.Memory)
		net, err := topo.Generate(cfg, xrand.New(int64(k)))
		if err != nil {
			t.Fatal(err)
		}
		pairs := topo.ChooseSDPairs(net, 5+rng.Intn(16), xrand.New(int64(k)+1))
		opts := Options{RoundingSolves: 1 + rng.Intn(6), Warm: warm.New()}
		e, err := NewEngine(net, pairs, opts)
		if err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
		ref := &Engine{Net: e.Net, Pairs: e.Pairs, Set: e.Set, ConnCap: e.ConnCap, opts: e.opts}
		if err := ref.provisionReference(nil); err != nil {
			t.Fatalf("instance %d reference: %v", k, err)
		}
		if math.Float64bits(e.LPObjective) != math.Float64bits(ref.LPObjective) {
			t.Fatalf("instance %d: LP objective %v, reference %v", k, e.LPObjective, ref.LPObjective)
		}
		if !slices.Equal(e.Plan, ref.Plan) {
			t.Fatalf("instance %d (%d nodes, %d channels): plan %v, reference %v", k, cfg.Nodes, cfg.Channels, e.Plan, ref.Plan)
		}
		attempts += e.Plan.TotalAttempts()
	}
	if attempts == 0 {
		t.Fatal("vacuous comparison: nothing provisioned")
	}
}
