package topo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"see/internal/graph"
)

// Config describes a randomly generated network in the style of the paper's
// evaluation (§IV-A): nodes placed uniformly in a square area, links drawn
// from the Waxman model, uniform per-link channel counts and per-node
// memory/swap probability, and the e^{−αl}+δ segment success model.
type Config struct {
	// Nodes is the node count (paper default: 200).
	Nodes int
	// AreaKM is the square side length in km (paper: 10,000).
	AreaKM float64
	// WaxmanBeta scales overall link probability (0 < β ≤ 1).
	WaxmanBeta float64
	// WaxmanGamma scales the link-length decay relative to the maximum
	// node distance: P(u,v) = β·exp(−d/(γ·L_max)).
	WaxmanGamma float64
	// Channels per link (paper default: 3).
	Channels int
	// Memory units per node (paper default: 10).
	Memory int
	// SwapProb q per node (paper default: 0.9).
	SwapProb float64
	// Alpha is the attenuation parameter in p = e^{−αl}+δ (paper default:
	// 2e-4, giving ≈0.8 mean single-link success).
	Alpha float64
	// Delta is the half-width of the uniform noise δ (paper: 0.05).
	Delta float64
	// EnsureConnected joins components with extra shortest links so every
	// SD pair is routable (the paper implicitly assumes routable pairs).
	EnsureConnected bool

	// Heterogeneity extensions (the paper uses uniform resources; these
	// draw per-element values uniformly from [X−Jitter, X+Jitter]).
	MemoryJitter   int
	ChannelJitter  int
	SwapProbJitter float64
}

// DefaultConfig returns the paper's default parameters.
func DefaultConfig() Config {
	return Config{
		Nodes:           200,
		AreaKM:          10000,
		WaxmanBeta:      0.90,
		WaxmanGamma:     0.045,
		Channels:        3,
		Memory:          10,
		SwapProb:        0.9,
		Alpha:           2e-4,
		Delta:           0.05,
		EnsureConnected: true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 2:
		return errors.New("topo: need at least 2 nodes")
	case c.AreaKM <= 0:
		return errors.New("topo: AreaKM must be positive")
	case c.WaxmanBeta <= 0 || c.WaxmanBeta > 1:
		return fmt.Errorf("topo: WaxmanBeta %v out of (0,1]", c.WaxmanBeta)
	case c.WaxmanGamma <= 0:
		return errors.New("topo: WaxmanGamma must be positive")
	case c.Channels < 1:
		return errors.New("topo: Channels must be >= 1")
	case c.Memory < 1:
		return errors.New("topo: Memory must be >= 1")
	case c.SwapProb < 0 || c.SwapProb > 1:
		return fmt.Errorf("topo: SwapProb %v out of [0,1]", c.SwapProb)
	case c.Alpha < 0:
		return errors.New("topo: Alpha must be >= 0")
	case c.Delta < 0:
		return errors.New("topo: Delta must be >= 0")
	}
	if c.MemoryJitter < 0 || c.MemoryJitter >= c.Memory {
		if c.MemoryJitter != 0 {
			return fmt.Errorf("topo: MemoryJitter %d out of [0,%d)", c.MemoryJitter, c.Memory)
		}
	}
	if c.ChannelJitter < 0 || c.ChannelJitter >= c.Channels {
		if c.ChannelJitter != 0 {
			return fmt.Errorf("topo: ChannelJitter %d out of [0,%d)", c.ChannelJitter, c.Channels)
		}
	}
	if c.SwapProbJitter != 0 &&
		(c.SwapProbJitter < 0 || c.SwapProb+c.SwapProbJitter > 1 || c.SwapProb-c.SwapProbJitter < 0) {
		return fmt.Errorf("topo: SwapProbJitter %v pushes q outside [0,1]", c.SwapProbJitter)
	}
	return nil
}

// jitterInt draws uniformly from [base−j, base+j].
func jitterInt(rng *rand.Rand, base, j int) int {
	if j <= 0 {
		return base
	}
	return base - j + rng.Intn(2*j+1)
}

// jitterFloat draws uniformly from [base−j, base+j].
func jitterFloat(rng *rand.Rand, base, j float64) float64 {
	if j <= 0 {
		return base
	}
	return base + (rng.Float64()*2-1)*j
}

// Generate builds a random Waxman network. The result is deterministic in
// (cfg, rng state).
func Generate(cfg Config, rng *rand.Rand) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Nodes
	net := &Network{
		G:        graph.New(n),
		Pos:      make([][2]float64, n),
		Memory:   make([]int, n),
		SwapProb: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		net.Pos[i] = [2]float64{rng.Float64() * cfg.AreaKM, rng.Float64() * cfg.AreaKM}
		net.Memory[i] = jitterInt(rng, cfg.Memory, cfg.MemoryJitter)
		net.SwapProb[i] = jitterFloat(rng, cfg.SwapProb, cfg.SwapProbJitter)
	}
	lmax := cfg.AreaKM * math.Sqrt2
	scale := cfg.WaxmanGamma * lmax
	addLink := func(u, v int) {
		d := dist(net.Pos[u], net.Pos[v])
		if d <= 0 {
			d = 1e-6 // coincident points: nominal 1 m of fibre
		}
		net.G.AddEdge(u, v, d)
		net.LinkLen = append(net.LinkLen, d)
		net.Channels = append(net.Channels, jitterInt(rng, cfg.Channels, cfg.ChannelJitter))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			d := dist(net.Pos[u], net.Pos[v])
			if rng.Float64() < cfg.WaxmanBeta*math.Exp(-d/scale) {
				addLink(u, v)
			}
		}
	}
	if cfg.EnsureConnected {
		augmentConnectivity(net, addLink)
	}
	net.prober = ExpProber{Alpha: cfg.Alpha, Delta: cfg.Delta, Seed: rng.Int63()}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("topo: generated network invalid: %w", err)
	}
	return net, nil
}

// augmentConnectivity repeatedly joins the two geometrically closest nodes
// in different components until the graph is connected. This mirrors how
// evaluation testbeds discard unroutable SD pairs while keeping generation
// deterministic.
func augmentConnectivity(net *Network, addLink func(u, v int)) {
	for {
		label, count := graph.Components(net.G)
		if count <= 1 {
			return
		}
		bestU, bestV, bestD := -1, -1, math.Inf(1)
		for u := 0; u < net.G.N(); u++ {
			for v := u + 1; v < net.G.N(); v++ {
				if label[u] == label[v] {
					continue
				}
				if d := dist(net.Pos[u], net.Pos[v]); d < bestD {
					bestU, bestV, bestD = u, v, d
				}
			}
		}
		addLink(bestU, bestV)
	}
}

func dist(a, b [2]float64) float64 {
	dx, dy := a[0]-b[0], a[1]-b[1]
	return math.Sqrt(dx*dx + dy*dy)
}

// ChooseSDPairs samples count SD pairs with distinct endpoints (s ≠ d) from
// the network, without repeating an unordered pair. If the network has too
// few distinct pairs, it returns as many as exist; a count ≤ 0 returns none.
func ChooseSDPairs(net *Network, count int, rng *rand.Rand) []SDPair {
	if count <= 0 {
		return nil
	}
	n := net.NumNodes()
	maxPairs := n * (n - 1) / 2
	if count > maxPairs {
		count = maxPairs
	}
	pairs := make([]SDPair, 0, count)
	used := make(map[[2]int]struct{}, count)
	for len(pairs) < count {
		s, d := rng.Intn(n), rng.Intn(n)
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

// Stats summarizes a topology for calibration and the seetopo CLI.
type Stats struct {
	Nodes, Links  int
	AvgDegree     float64
	MeanLinkKM    float64
	MedianLinkKM  float64
	MeanLinkProb  float64
	Components    int
	ChannelsTotal int
	MemoryTotal   int
}

// Summarize computes topology statistics. Mean link probability uses the
// network's prober over single links.
func Summarize(net *Network) Stats {
	st := Stats{Nodes: net.NumNodes(), Links: net.NumLinks()}
	if st.Nodes > 0 {
		st.AvgDegree = 2 * float64(st.Links) / float64(st.Nodes)
	}
	_, st.Components = graph.Components(net.G)
	lens := append([]float64(nil), net.LinkLen...)
	sort.Float64s(lens)
	for _, l := range lens {
		st.MeanLinkKM += l
	}
	if len(lens) > 0 {
		st.MeanLinkKM /= float64(len(lens))
		st.MedianLinkKM = lens[len(lens)/2]
	}
	var probSum float64
	var probCount int
	for u := 0; u < net.G.N(); u++ {
		for _, e := range net.G.Neighbors(u) {
			if u < e.To {
				probSum += net.SegmentSuccessProb(graph.Path{u, e.To})
				probCount++
			}
		}
	}
	if probCount > 0 {
		st.MeanLinkProb = probSum / float64(probCount)
	}
	for _, c := range net.Channels {
		st.ChannelsTotal += c
	}
	for _, m := range net.Memory {
		st.MemoryTotal += m
	}
	return st
}
