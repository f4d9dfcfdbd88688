package contend

// The pre-ledger contention planners, kept verbatim (renamed with a
// Reference suffix) as the reference the ledger-based buildPlan and
// buildPlanOffline are pinned to: each hand-rolls its residual channel and
// memory tables.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"see/internal/graph"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// attemptCost is the expected number of attempts a unit of flow costs on
// the candidate: 1/(p·√(q_u·q_v)), the metric the LP prices columns with
// (+Inf when the realization cannot support flow).
func attemptCostReference(net *topo.Network, c *segment.Candidate) float64 {
	qu := net.SwapProb[c.Path[0]]
	qv := net.SwapProb[c.Path[len(c.Path)-1]]
	den := c.Prob * math.Sqrt(qu*qv)
	if den <= 1e-12 {
		return math.Inf(1)
	}
	return 1 / den
}

// residualReference tracks the contention state during plan construction.
type residualReference struct {
	channels []int
	memory   []int
}

// cheapestFeasibleReference returns the lowest-attempt-cost realization of the pair
// that fits at least one attempt in the residual resources, skipping the
// realization `not` (used to pick a disjoint recovery realization).
func (e *Engine) cheapestFeasibleReference(r *residualReference, pk segment.PairKey, not *segment.Candidate) (*segment.Candidate, float64) {
	var best *segment.Candidate
	bestCost := math.Inf(1)
	for _, c := range e.Set.ByPair[pk] {
		if c == not {
			continue
		}
		fits := r.memory[pk.U] >= 1 && r.memory[pk.V] >= 1
		for _, id := range c.EdgeIDs {
			if r.channels[id] < 1 {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		if cost := attemptCostReference(e.Net, c); cost < bestCost {
			best, bestCost = c, cost
		}
	}
	return best, bestCost
}

// widthForReference bounds the attempt count of a realization by the residual
// channels along its route and the residual memories of its endpoints,
// starting from the requested width.
func widthForReference(r *residualReference, c *segment.Candidate, pk segment.PairKey, want int) int {
	n := want
	for _, id := range c.EdgeIDs {
		if r.channels[id] < n {
			n = r.channels[id]
		}
	}
	if r.memory[pk.U] < n {
		n = r.memory[pk.U]
	}
	if r.memory[pk.V] < n {
		n = r.memory[pk.V]
	}
	return n
}

// scorePathReference evaluates the expected-throughput metric of a candidate path
// under the residual resources:
//
//	E(ℓ) = Π_hops (1 − (1 − p^k_uv)^{n_h}) · Π_junctions q_u
//
// where n_h = min(⌈1/p⌉, residual width) is the attempt budget hop h would
// get, with each hop priced on its cheapest still-feasible realization. It
// returns the score and the concrete hop plan (nil when any hop has no
// feasible realization).
func (e *Engine) scorePathReference(r *residualReference, nodes graph.Path) (float64, []hop) {
	score := 1.0
	hops := make([]hop, 0, len(nodes)-1)
	// Hop reservations within one path compound, so simulate them on a
	// scratch copy of the residual state (paths share endpoints with
	// themselves when they revisit a node's memory).
	scratch := &residualReference{
		channels: append([]int(nil), r.channels...),
		memory:   append([]int(nil), r.memory...),
	}
	for i := 0; i+1 < len(nodes); i++ {
		pk := segment.MakePairKey(nodes[i], nodes[i+1])
		cand, cost := e.cheapestFeasibleReference(scratch, pk, nil)
		if cand == nil || math.IsInf(cost, 1) {
			return 0, nil
		}
		n := widthForReference(scratch, cand, pk, int(math.Ceil(1/cand.Prob)))
		if n < 1 {
			return 0, nil
		}
		for _, id := range cand.EdgeIDs {
			scratch.channels[id] -= n
		}
		scratch.memory[pk.U] -= n
		scratch.memory[pk.V] -= n
		score *= 1 - math.Pow(1-cand.Prob, float64(n))
		hops = append(hops, hop{pair: pk, cand: cand, attempts: n})
	}
	for j := 1; j+1 < len(nodes); j++ {
		score *= e.Net.SwapProb[nodes[j]]
	}
	return score, hops
}

// buildPlanReference is the contention-aware selection loop: every unsaturated
// pair's candidate paths are re-scored against the residual resources, the
// globally best-scoring path is accepted, its hops (primary + recovery)
// are charged against the residuals, and the loop repeats until no
// candidate has positive score. Ties break deterministically on (pair
// index, candidate index).
func (e *Engine) buildPlanReference() {
	if e.opts.Offline {
		e.buildPlanOfflineReference()
		return
	}
	r := e.startingResidualReference()
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
				score, hops := e.scorePathReference(r, nodes)
				if score > bestScore {
					bestScore, bestPair, bestIdx, bestHops = score, i, j, hops
				}
			}
		}
		if bestPair < 0 || bestScore <= 0 {
			break
		}
		// Charge the accepted path's primary reservations.
		for _, h := range bestHops {
			for _, id := range h.cand.EdgeIDs {
				r.channels[id] -= h.attempts
			}
			r.memory[h.pair.U] -= h.attempts
			r.memory[h.pair.V] -= h.attempts
		}
		// Reserve recovery attempts on the next-best disjoint realization
		// of each hop, within whatever resources remain.
		pp := plannedPath{commodity: bestPair, nodes: cands[bestPair][bestIdx], score: bestScore}
		for _, h := range bestHops {
			if e.opts.RecoveryAttempts > 0 {
				if rec, cost := e.cheapestFeasibleReference(r, h.pair, h.cand); rec != nil && !math.IsInf(cost, 1) {
					if n := widthForReference(r, rec, h.pair, e.opts.RecoveryAttempts); n >= 1 {
						for _, id := range rec.EdgeIDs {
							r.channels[id] -= n
						}
						r.memory[h.pair.U] -= n
						r.memory[h.pair.V] -= n
						h.recovery, h.recAttempts = rec, n
					}
				}
			}
			pp.hops = append(pp.hops, h)
		}
		e.paths = append(e.paths, pp)
		planned[bestPair]++
	}
	for _, pp := range e.paths {
		e.expected += pp.score
	}
}

// startingResidualReference seeds the contention state from the planning capacity
// tables: the forecast-shrunk overrides when set, the network tables
// otherwise.
func (e *Engine) startingResidualReference() *residualReference {
	channels := e.Net.Channels
	if e.opts.PlanChannels != nil {
		channels = e.opts.PlanChannels
	}
	memory := e.Net.Memory
	if e.opts.PlanMemory != nil {
		memory = e.opts.PlanMemory
	}
	return &residualReference{
		channels: append([]int(nil), channels...),
		memory:   append([]int(nil), memory...),
	}
}

// buildPlanOfflineReference fixes the Q-PASS-style offline plan. Candidate paths
// are scored exactly once against the full fault-free topology — the
// offline planner re-scores nothing against residual state — then
// provisioned in round-robin sweeps over the SD pairs (one path per
// unsaturated pair per sweep, best static score first). A path is accepted
// only if the residual resources still fit the pre-computed widths of all
// its hops (all-or-nothing), and per-hop recovery attempts are reserved up
// front like the online planner's. The fault forecast is deliberately
// ignored: this is the contrast baseline the fault-aware variants are
// measured against.
func (e *Engine) buildPlanOfflineReference() {
	full := &residualReference{
		channels: append([]int(nil), e.Net.Channels...),
		memory:   append([]int(nil), e.Net.Memory...),
	}
	cands := e.candidatePaths()
	type offlinePath struct {
		nodes graph.Path
		hops  []hop
		score float64
	}
	scored := make([][]offlinePath, len(e.Pairs))
	for i := range e.Pairs {
		for _, nodes := range cands[i] {
			score, hops := e.scorePathReference(full, nodes)
			if score <= 0 {
				continue
			}
			scored[i] = append(scored[i], offlinePath{nodes: nodes, hops: hops, score: score})
		}
		list := scored[i]
		sort.SliceStable(list, func(a, b int) bool { return list[a].score > list[b].score })
	}

	r := &residualReference{
		channels: append([]int(nil), e.Net.Channels...),
		memory:   append([]int(nil), e.Net.Memory...),
	}
	// fits reports whether the residual covers every hop at its full
	// pre-computed width (hops of one path may share links and endpoints,
	// so charge a scratch copy).
	fits := func(hops []hop) bool {
		scratch := &residualReference{
			channels: append([]int(nil), r.channels...),
			memory:   append([]int(nil), r.memory...),
		}
		for _, h := range hops {
			for _, id := range h.cand.EdgeIDs {
				scratch.channels[id] -= h.attempts
				if scratch.channels[id] < 0 {
					return false
				}
			}
			scratch.memory[h.pair.U] -= h.attempts
			scratch.memory[h.pair.V] -= h.attempts
			if scratch.memory[h.pair.U] < 0 || scratch.memory[h.pair.V] < 0 {
				return false
			}
		}
		return true
	}
	planned := make([]int, len(e.Pairs))
	for {
		progress := false
		for i := range e.Pairs {
			if planned[i] >= e.ConnCap[i] {
				continue
			}
			accepted := -1
			for j, op := range scored[i] {
				if !fits(op.hops) {
					continue
				}
				accepted = j
				break
			}
			if accepted < 0 {
				continue
			}
			op := scored[i][accepted]
			pp := plannedPath{commodity: i, nodes: op.nodes, score: op.score}
			for _, h := range op.hops {
				for _, id := range h.cand.EdgeIDs {
					r.channels[id] -= h.attempts
				}
				r.memory[h.pair.U] -= h.attempts
				r.memory[h.pair.V] -= h.attempts
			}
			for _, h := range op.hops {
				if e.opts.RecoveryAttempts > 0 {
					if rec, cost := e.cheapestFeasibleReference(r, h.pair, h.cand); rec != nil && !math.IsInf(cost, 1) {
						if n := widthForReference(r, rec, h.pair, e.opts.RecoveryAttempts); n >= 1 {
							for _, id := range rec.EdgeIDs {
								r.channels[id] -= n
							}
							r.memory[h.pair.U] -= n
							r.memory[h.pair.V] -= n
							h.recovery, h.recAttempts = rec, n
						}
					}
				}
				pp.hops = append(pp.hops, h)
			}
			e.paths = append(e.paths, pp)
			planned[i]++
			progress = true
		}
		if !progress {
			break
		}
	}
	for _, pp := range e.paths {
		e.expected += pp.score
	}
}

// TestPlanMatchesReference pins the ledger-based planners to the
// hand-rolled references on random instances: 50–300 nodes, 2–7 channels
// per link, forecast-shrunk planning capacities on most instances and 0–2
// recovery attempts, each planned online and offline over one segment
// set. Paths, hops, attempts, recovery picks, scores and the expected
// value must match bit for bit.
func TestPlanMatchesReference(t *testing.T) {
	instances := 50
	if testing.Short() {
		instances = 10
	}
	var paths, recoveries int
	for k := 0; k < instances; k++ {
		rng := xrand.New(int64(500 + k))
		cfg := topo.DefaultConfig()
		cfg.Nodes = 50 + rng.Intn(251)
		cfg.Channels = 2 + rng.Intn(6)
		net, pairs := buildWith(t, cfg, 5+rng.Intn(16), int64(k))
		opts := DefaultOptions()
		opts.RecoveryAttempts = rng.Intn(3)
		if k%5 != 0 {
			opts.PlanChannels = shrink(rng, net.Channels)
			opts.PlanMemory = shrink(rng, net.Memory)
		}
		for _, offline := range []bool{false, true} {
			opts.Offline = offline
			e, err := newEngine(net, pairs, opts)
			if err != nil {
				t.Fatalf("instance %d offline=%v: %v", k, offline, err)
			}
			ref := &Engine{Net: e.Net, Pairs: e.Pairs, Set: e.Set, ConnCap: e.ConnCap, opts: e.opts}
			ref.buildPlanReference()
			if err := samePlan(e, ref); err != nil {
				t.Fatalf("instance %d (%d nodes, %d channels, recovery %d, offline=%v): %v",
					k, cfg.Nodes, cfg.Channels, opts.RecoveryAttempts, offline, err)
			}
			paths += len(e.paths)
			for _, pp := range e.paths {
				for _, h := range pp.hops {
					if h.recovery != nil {
						recoveries++
					}
				}
			}
		}
	}
	t.Logf("%d paths, %d recovery picks", paths, recoveries)
	if paths == 0 || recoveries == 0 {
		t.Fatalf("vacuous comparison: %d paths, %d recovery picks", paths, recoveries)
	}
}

// shrink returns a forecast-shrunk copy of a capacity table: about one
// entry in six loses a random share of its capacity, possibly all of it.
func shrink(rng *rand.Rand, caps []int) []int {
	out := append([]int(nil), caps...)
	for i := range out {
		if rng.Intn(6) == 0 {
			out[i] -= rng.Intn(out[i] + 1)
		}
	}
	return out
}

// samePlan reports the first difference between two engines' accepted
// paths and expected values, comparing candidates by pointer and floats by
// bits.
func samePlan(got, want *Engine) error {
	if math.Float64bits(got.expected) != math.Float64bits(want.expected) {
		return fmt.Errorf("expected %v, reference %v", got.expected, want.expected)
	}
	if len(got.paths) != len(want.paths) {
		return fmt.Errorf("%d paths, reference %d", len(got.paths), len(want.paths))
	}
	for i, g := range got.paths {
		w := want.paths[i]
		if g.commodity != w.commodity || !slices.Equal(g.nodes, w.nodes) ||
			math.Float64bits(g.score) != math.Float64bits(w.score) || len(g.hops) != len(w.hops) {
			return fmt.Errorf("path %d: %d %v score %v (%d hops), reference %d %v score %v (%d hops)",
				i, g.commodity, g.nodes, g.score, len(g.hops), w.commodity, w.nodes, w.score, len(w.hops))
		}
		for j, h := range g.hops {
			if h != w.hops[j] {
				return fmt.Errorf("path %d hop %d: %+v, reference %+v", i, j, h, w.hops[j])
			}
		}
	}
	return nil
}
