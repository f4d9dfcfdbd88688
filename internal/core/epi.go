package core

import (
	"math"
	"math/rand"

	"see/internal/flow"
	"see/internal/graph"
	"see/internal/xrand"
)

// PlannedPath is one entanglement path chosen by EPI's randomized rounding:
// the n-th connection attempt of an SD pair, routed over concrete segments.
type PlannedPath struct {
	Commodity int
	Nodes     graph.Path
	Hops      []flow.SegHop
	// physHops is the total physical hop count under the candidates chosen
	// by the LP column (ESC's secondary sort key).
	PhysHops int
}

// identifyPathsLP implements Algorithm 1 (EPI) on an aggregated LP solution.
//
// The paper rounds each t^n_i to 1 with probability t̃^n_i and then samples
// the connection's path proportionally to the flow split. Summed over n,
// the number of planned connections for pair i is a random variable with
// mean T_i = Σ_n t̃^n_i; we draw it as ⌊T_i⌋ + Bernoulli(frac(T_i)) — the
// same expectation, so Theorem 2's Chernoff argument carries over — and
// sample each connection's path with probability flow(P)/T_i, exactly
// Algorithm 1's second rounding.
//
// Rounding over the engine's fixed LP uses the cached EPI tables; a
// slot-local solution (the carry-aware re-solve) derives its own tables
// for the slot. The planned paths are appended to dst, which is returned
// extended, so the slot scratch reuses one buffer.
func (e *Engine) identifyPathsLP(dst []PlannedPath, sol *flow.Solution, rng *rand.Rand) []PlannedPath {
	// The per-commodity grouping and sampling weights are pure functions of
	// the LP solution, derived once per solution instead of per slot.
	var perCommodity [][]flow.PathFlow
	var allWeights [][]float64
	if sol == e.LP {
		perCommodity, allWeights = e.epiTables()
	} else {
		perCommodity, allWeights = deriveEpiTables(len(e.Pairs), sol)
	}
	out := dst
	for i, paths := range perCommodity {
		if len(paths) == 0 {
			continue
		}
		total := sol.PerCommodity[i]
		if total <= 1e-9 {
			continue
		}
		count := int(math.Floor(total))
		if xrand.Bernoulli(rng, total-math.Floor(total)) {
			count++
		}
		if count > e.ConnCap[i] {
			count = e.ConnCap[i]
		}
		weights := allWeights[i]
		for n := 0; n < count; n++ {
			j := xrand.WeightedIndex(rng, weights)
			if j < 0 {
				break
			}
			out = append(out, PlannedPath{
				Commodity: i,
				Nodes:     paths[j].Nodes,
				Hops:      paths[j].Hops,
				PhysHops:  physicalHops(paths[j].Hops),
			})
		}
	}
	return out
}

func physicalHops(hops []flow.SegHop) int {
	total := 0
	for _, h := range hops {
		total += h.Cand.Hops()
	}
	return total
}
