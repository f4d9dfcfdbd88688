// Package topo builds and describes quantum data network topologies: the
// Waxman random networks used in the paper's evaluation (§IV-A), the Fig. 2
// motivation fixture, per-node/per-link quantum resources, and the
// entanglement-segment success-probability model p = e^{−αl} + δ.
package topo

import (
	"fmt"
	"math"

	"see/internal/graph"
)

// Network is a quantum data network: an undirected physical topology plus
// the quantum resources and probability model the controller knows (paper
// §II-F).
type Network struct {
	// G is the physical topology. Edge IDs index LinkLen and Channels.
	G *Topology
	// Pos holds node coordinates in kilometres.
	Pos [][2]float64
	// LinkLen is the fibre length of each link in km, by edge ID.
	LinkLen []float64
	// Channels is the number of quantum channels per link, by edge ID.
	Channels []int
	// Memory is the quantum memory size of each node (units of qubits).
	Memory []int
	// SwapProb is the quantum-swapping success probability q_u per node.
	SwapProb []float64

	prober SegmentProber
}

// Topology aliases the graph type used for physical topologies.
type Topology = graph.Graph

// newGraph constructs an empty physical topology with n nodes.
func newGraph(n int) *Topology { return graph.New(n) }

// SegmentProber computes the success probability of creating one
// entanglement segment over a concrete physical segment in one time slot.
type SegmentProber interface {
	SegmentProb(path graph.Path, lengthKM float64) float64
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return n.G.N() }

// NumLinks returns the physical link count.
func (n *Network) NumLinks() int { return n.G.NumEdgeIDs() }

// PathLengthKM sums link lengths along a physical path, choosing the
// shortest parallel link between consecutive nodes. It returns +Inf for
// non-adjacent hops.
func (n *Network) PathLengthKM(p graph.Path) float64 {
	var total float64
	for i := 0; i+1 < len(p); i++ {
		best := math.Inf(1)
		for _, e := range n.G.Neighbors(p[i]) {
			if e.To == p[i+1] && n.LinkLen[e.ID] < best {
				best = n.LinkLen[e.ID]
			}
		}
		if math.IsInf(best, 1) {
			return best
		}
		total += best
	}
	return total
}

// SegmentSuccessProb returns the one-slot success probability of creating an
// entanglement segment over the given physical segment, clamped to [0, 1].
// Single-node paths (no transmission) have probability 1.
func (n *Network) SegmentSuccessProb(p graph.Path) float64 {
	prob, _ := n.SegmentProbLength(p)
	return prob
}

// SegmentProbLength returns SegmentSuccessProb(p) together with the
// PathLengthKM(p) it was computed from, so a caller that needs both scans
// the path once. A single-node path has probability 1 and length 0; a
// path with a non-adjacent hop has probability 0 and length +Inf.
func (n *Network) SegmentProbLength(p graph.Path) (prob, lengthKM float64) {
	if len(p) <= 1 {
		return 1, 0
	}
	l := n.PathLengthKM(p)
	return n.SegmentProbKM(p, l), l
}

// SegmentProbKM is the success probability of the physical segment p of
// at least one hop whose fibre length lengthKM is already known: the
// prober's value clamped to [0, 1], and 0 for a length of +Inf (a
// non-adjacent hop). With lengthKM = PathLengthKM(p) it is
// SegmentSuccessProb(p).
func (n *Network) SegmentProbKM(p graph.Path, lengthKM float64) float64 {
	if math.IsInf(lengthKM, 1) {
		return 0
	}
	prob := n.prober.SegmentProb(p, lengthKM)
	if prob < 0 {
		return 0
	}
	if prob > 1 {
		return 1
	}
	return prob
}

// SetProber replaces the probability model (used by fixtures and tests).
func (n *Network) SetProber(p SegmentProber) { n.prober = p }

// IncidentLinks returns the edge IDs of every link incident to node v
// (parallel links included, each ID once). The fault injector uses it to
// take a crashed node's links down with the node.
func (n *Network) IncidentLinks(v int) []int {
	edges := n.G.Neighbors(v)
	ids := make([]int, 0, len(edges))
	for _, e := range edges {
		ids = append(ids, e.ID)
	}
	return ids
}

// Validate checks structural invariants: attribute table sizes, positive
// lengths, non-negative resources, probabilities in [0, 1].
func (n *Network) Validate() error {
	if err := n.G.Validate(); err != nil {
		return err
	}
	if len(n.Pos) != n.G.N() || len(n.Memory) != n.G.N() || len(n.SwapProb) != n.G.N() {
		return fmt.Errorf("topo: node table sizes (%d,%d,%d) != N=%d",
			len(n.Pos), len(n.Memory), len(n.SwapProb), n.G.N())
	}
	if len(n.LinkLen) != n.G.NumEdgeIDs() || len(n.Channels) != n.G.NumEdgeIDs() {
		return fmt.Errorf("topo: link table sizes (%d,%d) != E=%d",
			len(n.LinkLen), len(n.Channels), n.G.NumEdgeIDs())
	}
	for i, l := range n.LinkLen {
		if l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("topo: link %d has invalid length %v", i, l)
		}
		if n.Channels[i] < 0 {
			return fmt.Errorf("topo: link %d has negative channels", i)
		}
	}
	for u := range n.Memory {
		if n.Memory[u] < 0 {
			return fmt.Errorf("topo: node %d has negative memory", u)
		}
		if n.SwapProb[u] < 0 || n.SwapProb[u] > 1 || math.IsNaN(n.SwapProb[u]) {
			return fmt.Errorf("topo: node %d has invalid swap probability %v", u, n.SwapProb[u])
		}
	}
	if n.prober == nil {
		return fmt.Errorf("topo: nil segment prober")
	}
	return nil
}

// SDPair is a source-destination demand.
type SDPair struct {
	S, D int
}

// ExpProber is the paper's probability model p = e^{−αl} + δ with
// δ ~ U[−Delta, +Delta]. The noise term is a deterministic function of the
// segment's node sequence and the Seed, so a given physical segment has one
// fixed probability per network — matching the paper's setting where the
// controller knows each segment's success probability.
type ExpProber struct {
	Alpha float64
	Delta float64
	Seed  int64
}

// SegmentProb implements SegmentProber.
func (e ExpProber) SegmentProb(path graph.Path, lengthKM float64) float64 {
	p := math.Exp(-e.Alpha * lengthKM)
	if e.Delta > 0 {
		p += (hash01(path, e.Seed)*2 - 1) * e.Delta
	}
	return p
}

// hash01 maps (path, seed) to a uniform-ish value in [0, 1).
func hash01(path graph.Path, seed int64) float64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for _, v := range path {
		h ^= uint64(uint32(v)) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return float64(h>>11) / float64(1<<53)
}

// TableProber returns fixed probabilities for listed segments and falls
// back to an ExpProber elsewhere. Fixtures use it to pin exact paper values.
type TableProber struct {
	Table    map[string]float64
	Fallback SegmentProber
}

// Key builds the canonical lookup key for a node path. Both directions of a
// segment share a key.
func Key(path graph.Path) string {
	if len(path) > 1 && path[0] > path[len(path)-1] {
		rev := make(graph.Path, len(path))
		for i, v := range path {
			rev[len(path)-1-i] = v
		}
		path = rev
	}
	b := make([]byte, 0, len(path)*4)
	for _, v := range path {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), '.')
	}
	return string(b)
}

// SegmentProb implements SegmentProber.
func (t TableProber) SegmentProb(path graph.Path, lengthKM float64) float64 {
	if p, ok := t.Table[Key(path)]; ok {
		return p
	}
	if t.Fallback != nil {
		return t.Fallback.SegmentProb(path, lengthKM)
	}
	return 0
}
