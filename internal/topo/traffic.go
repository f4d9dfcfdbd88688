package topo

import (
	"math"
	"math/rand"

	"see/internal/xrand"
)

// TrafficPattern selects how SD pairs are drawn from a topology. The paper
// samples uniformly; the other patterns model workloads its introduction
// motivates (quantum data centres, metro clusters) and are used by the
// workload extension.
type TrafficPattern int

// Supported patterns.
const (
	// TrafficUniform draws endpoints uniformly (the paper's setting).
	TrafficUniform TrafficPattern = iota
	// TrafficHotspot routes a fraction of the demand to one hub node
	// (a quantum data centre serving many clients).
	TrafficHotspot
	// TrafficGravity prefers geographically close pairs with probability
	// ∝ e^{−d/scale} (metro-area clustering).
	TrafficGravity
)

// String implements fmt.Stringer.
func (t TrafficPattern) String() string {
	switch t {
	case TrafficUniform:
		return "uniform"
	case TrafficHotspot:
		return "hotspot"
	case TrafficGravity:
		return "gravity"
	default:
		return "traffic(?)"
	}
}

// TrafficConfig tunes non-uniform patterns.
type TrafficConfig struct {
	Pattern TrafficPattern
	// HotspotFraction of pairs that terminate at the hub (default 0.5);
	// only for TrafficHotspot.
	HotspotFraction float64
	// Hub is the hub node; -1 picks the highest-degree node.
	Hub int
	// GravityScaleKM is the decay length (default: a quarter of the
	// network diameter); only for TrafficGravity.
	GravityScaleKM float64
}

// ChooseSDPairsWithTraffic draws count distinct SD pairs under the pattern
// (none for a count ≤ 0).
func ChooseSDPairsWithTraffic(net *Network, count int, cfg TrafficConfig, rng *rand.Rand) []SDPair {
	if count <= 0 {
		return nil
	}
	switch cfg.Pattern {
	case TrafficHotspot:
		return chooseHotspot(net, count, cfg, rng)
	case TrafficGravity:
		return chooseGravity(net, count, cfg, rng)
	default:
		return ChooseSDPairs(net, count, rng)
	}
}

func chooseHotspot(net *Network, count int, cfg TrafficConfig, rng *rand.Rand) []SDPair {
	n := net.NumNodes()
	if n < 2 {
		return nil
	}
	hub := cfg.Hub
	if hub < 0 || hub >= n {
		hub = 0
		for u := 1; u < n; u++ {
			if net.G.Degree(u) > net.G.Degree(hub) {
				hub = u
			}
		}
	}
	frac := cfg.HotspotFraction
	if frac <= 0 || frac > 1 {
		frac = 0.5
	}
	maxPairs := n * (n - 1) / 2
	if count > maxPairs {
		count = maxPairs
	}
	used := make(map[[2]int]struct{}, count)
	pairs := make([]SDPair, 0, count)
	hubBudget := int(math.Round(frac * float64(count)))
	// The hub can anchor at most n−1 distinct pairs.
	if hubBudget > n-1 {
		hubBudget = n - 1
	}
	guard := 0
	for len(pairs) < count && guard < 100000 {
		guard++
		var s, d int
		if len(pairs) < hubBudget {
			s, d = hub, rng.Intn(n)
		} else {
			s, d = rng.Intn(n), rng.Intn(n)
		}
		if s == d {
			continue
		}
		key := [2]int{min(s, d), max(s, d)}
		if _, dup := used[key]; dup {
			continue
		}
		used[key] = struct{}{}
		pairs = append(pairs, SDPair{S: s, D: d})
	}
	return pairs
}

func chooseGravity(net *Network, count int, cfg TrafficConfig, rng *rand.Rand) []SDPair {
	n := net.NumNodes()
	if n < 2 {
		return nil
	}
	scale := cfg.GravityScaleKM
	if scale <= 0 {
		// Default: a quarter of the bounding-box diagonal.
		var maxX, maxY float64
		for _, p := range net.Pos {
			maxX = math.Max(maxX, p[0])
			maxY = math.Max(maxY, p[1])
		}
		scale = math.Hypot(maxX, maxY) / 4
		if scale <= 0 {
			scale = 1
		}
	}
	type pair struct {
		sd SDPair
		w  float64
	}
	all := make([]pair, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			d := dist(net.Pos[u], net.Pos[v])
			all = append(all, pair{sd: SDPair{S: u, D: v}, w: math.Exp(-d / scale)})
		}
	}
	if count > len(all) {
		count = len(all)
	}
	pairs := make([]SDPair, 0, count)
	weights := make([]float64, len(all))
	for i, p := range all {
		weights[i] = p.w
	}
	for len(pairs) < count {
		i := xrand.WeightedIndex(rng, weights)
		if i < 0 {
			break
		}
		pairs = append(pairs, all[i].sd)
		weights[i] = 0 // without replacement
	}
	return pairs
}
