// Package segment enumerates candidate physical segments — the multi-hop
// fibre routes over which entanglement segments can be created with
// all-optical switching — and assembles them into the segment graph used by
// the LP, the ESC reservation pass and the ECE auxiliary graph.
//
// Following §III-D of the paper, candidates are the contiguous sub-segments
// of K Yen shortest physical paths per SD pair, pruned by a hop cap and a
// minimum creation probability, keeping the best few physical realizations
// per endpoint pair.
package segment

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"see/internal/graph"
	"see/internal/par"
	"see/internal/topo"
)

// Candidate is one physical realization of an entanglement segment: the
// concrete fibre route between the segment's endpoints.
type Candidate struct {
	// Path is the physical node sequence; Path[0] and Path[len-1] are the
	// segment endpoints that will store the Bell-pair photons. Build's
	// candidates share it with the SD path they came from (a sub-slice
	// capped at its own length), so it is read-only.
	Path graph.Path
	// EdgeIDs are the physical link IDs along Path; creating the segment
	// reserves one channel on each for the whole slot. Build's candidates
	// share them with their SD path's, likewise read-only.
	EdgeIDs []int
	// Prob is the one-slot success probability of creating the segment
	// over this route (p^k_uv in the paper).
	Prob float64
	// LengthKM is the route's fibre length (topo.Network.PathLengthKM),
	// the length Prob was computed from and the one the fidelity model
	// decays a segment over.
	LengthKM float64
	// Decay is the factor transmission over the route scales a segment's
	// Werner parameter by, math.Exp(−LengthKM/DecayKM), computed once
	// here so the fidelity prediction of every assembled connection
	// reads it instead of recomputing the exponential. Only Build sets
	// it; a candidate literal has 0.
	Decay float64
	// ID numbers the set's candidates densely from 0 in the physical
	// phase's order: by endpoint pair (U, V), then by topo.Key(Path)
	// (KeyLess). Attempt plans are ordered by it.
	ID int
	// PairID is the dense index of the candidate's endpoint pair within
	// its set: the pair's segment-graph edge ID, so Set.EdgePairs[PairID]
	// is ⟨U, V⟩. Build sets it; a candidate made outside a set has 0,
	// which need not be its pair's, so readers check EdgePairs or their
	// own key table before trusting it.
	PairID int
}

// DecayKM is the depolarization length of the fidelity model:
// transmission over l km scales a segment's Werner parameter by
// e^(−l/DecayKM). 20,000 km models purified links and keeps fidelity
// secondary to throughput, as in the paper. Candidate.Decay and
// qnet.DefaultFidelityModel share it.
const DecayKM = 20000

// U returns the smaller endpoint of the candidate.
func (c *Candidate) U() int { return min(c.Path[0], c.Path[len(c.Path)-1]) }

// V returns the larger endpoint of the candidate.
func (c *Candidate) V() int { return max(c.Path[0], c.Path[len(c.Path)-1]) }

// Hops returns the number of physical links the candidate spans.
func (c *Candidate) Hops() int { return c.Path.Hops() }

// AttemptFactor is the expected number of creation attempts one unit of
// flow costs on the realization, 1/(p·√(q_u·q_v)), the metric the LP
// prices columns with. It is +Inf when p·√(q_u·q_v) ≤ 1e-12: such a
// realization cannot carry flow.
func AttemptFactor(net *topo.Network, c *Candidate) float64 {
	qu := net.SwapProb[c.Path[0]]
	qv := net.SwapProb[c.Path[len(c.Path)-1]]
	den := c.Prob * math.Sqrt(qu*qv)
	if den <= 1e-12 {
		return math.Inf(1)
	}
	return 1 / den
}

// PairKey identifies an unordered segment endpoint pair (U < V).
type PairKey struct {
	U, V int
}

// MakePairKey normalizes an endpoint pair.
func MakePairKey(a, b int) PairKey {
	if a > b {
		a, b = b, a
	}
	return PairKey{U: a, V: b}
}

// Options tunes candidate enumeration.
type Options struct {
	// KPaths is the number of Yen shortest physical paths per SD pair
	// (paper §III-D; default 5).
	KPaths int
	// MaxSegmentHops caps the physical hop count of a segment. 1
	// reproduces the entanglement-link-only setting (REPS); large values
	// approach pure all-optical switching. Default 4.
	MaxSegmentHops int
	// MinProb prunes candidates whose creation probability is below the
	// threshold (paper: segments "with a low probability ... will be
	// removed"). Default 0.05.
	MinProb float64
	// MaxCandidatesPerPair keeps only the top realizations per endpoint
	// pair, by probability. Default 3.
	MaxCandidatesPerPair int
	// FullPathOnly enumerates only whole SD paths as segments (the E2E
	// baseline); MaxSegmentHops is ignored and MinProb is not applied so
	// that E2E still attempts low-probability long segments, as the
	// paper's E2E curve does.
	FullPathOnly bool
	// Workers bounds the goroutines enumerating the SD pairs' Yen paths
	// (0 = GOMAXPROCS, 1 = serial). The set is identical at any value.
	Workers int
}

// DefaultOptions returns the defaults described above.
func DefaultOptions() Options {
	return Options{
		KPaths:               5,
		MaxSegmentHops:       4,
		MinProb:              0.05,
		MaxCandidatesPerPair: 3,
	}
}

func (o Options) withDefaults() Options {
	if o.KPaths <= 0 {
		o.KPaths = 5
	}
	if o.MaxSegmentHops <= 0 {
		o.MaxSegmentHops = 4
	}
	if o.MaxCandidatesPerPair <= 0 {
		o.MaxCandidatesPerPair = 3
	}
	if o.MinProb < 0 {
		o.MinProb = 0
	}
	return o
}

// Set is the candidate catalogue for one (network, SD pairs) instance.
type Set struct {
	Net   *topo.Network
	Pairs []topo.SDPair
	// ByPair lists candidates per endpoint pair, sorted by decreasing
	// probability.
	ByPair map[PairKey][]*Candidate
	// SDPaths holds, per SD pair, the physical candidate paths it was
	// derived from (useful for diagnostics and the E2E baseline).
	SDPaths [][]graph.Path

	// SegGraph has one undirected edge per endpoint pair with at least one
	// candidate; edge IDs index EdgePairs and ByEdge, whose lists are
	// ByPair's.
	SegGraph  *graph.Graph
	EdgePairs []PairKey
	ByEdge    [][]*Candidate
	EdgeOf    map[PairKey]int

	opts Options
}

// Build enumerates candidates for every SD pair.
func Build(net *topo.Network, pairs []topo.SDPair, opts Options) (*Set, error) {
	if net == nil {
		return nil, errors.New("segment: nil network")
	}
	opts = opts.withDefaults()
	s := &Set{
		Net:     net,
		Pairs:   append([]topo.SDPair(nil), pairs...),
		ByPair:  make(map[PairKey][]*Candidate),
		SDPaths: make([][]graph.Path, len(pairs)),
		EdgeOf:  make(map[PairKey]int),
		opts:    opts,
	}
	for i, sd := range pairs {
		if sd.S == sd.D || sd.S < 0 || sd.D < 0 || sd.S >= net.NumNodes() || sd.D >= net.NumNodes() {
			return nil, fmt.Errorf("segment: invalid SD pair %d: %+v", i, sd)
		}
	}
	// Each pair's Yen call writes only its own slot, on its worker's
	// scratch; candidates are then added serially in pair order, so the
	// set is the serial one.
	yen := make([]graph.YenScratch, par.Resolve(opts.Workers, len(pairs)))
	par.ForWorker(opts.Workers, len(pairs), func(w, i int) {
		s.SDPaths[i] = yen[w].KShortest(net.G, pairs[i].S, pairs[i].D, opts.KPaths, graph.DijkstraOptions{})
	})
	seen := &pathSet{head: make(map[uint64]int32)}
	var slab []Candidate
	for _, paths := range s.SDPaths {
		for _, p := range paths {
			slab = s.addSubpaths(p, seen, slab)
		}
	}
	s.trimAndSort()
	s.buildSegGraph()
	return s, nil
}

// addSubpaths offers the candidates of one SD path p, taking them from
// slab, and returns what is left of it: p itself under FullPathOnly,
// otherwise every sub-segment p[a:b+1] of at most MaxSegmentHops hops, in
// (a, b) order. Each hop's link (the first shortest of its parallel
// links) and length are read once, and a sub-segment's length grows left
// to right, the order topo.Network.PathLengthKM sums it in.
func (s *Set) addSubpaths(p graph.Path, seen *pathSet, slab []Candidate) []Candidate {
	if len(p) < 2 {
		return slab
	}
	ids := make([]int, len(p)-1)
	lens := make([]float64, len(p)-1)
	for h := range ids {
		ids[h], lens[h] = -1, math.Inf(1)
		for _, e := range s.Net.G.Neighbors(p[h]) {
			if e.To == p[h+1] && s.Net.LinkLen[e.ID] < lens[h] {
				ids[h], lens[h] = e.ID, s.Net.LinkLen[e.ID]
			}
		}
	}
	if s.opts.FullPathOnly {
		var l float64
		for _, x := range lens {
			l += x
		}
		return s.addCandidate(p, ids, l, seen, slab, true)
	}
	for a := range ids {
		var l float64
		for b := a + 1; b <= len(ids) && b-a <= s.opts.MaxSegmentHops; b++ {
			l += lens[b-1]
			slab = s.addCandidate(p[a:b+1:b+1], ids[a:b:b], l, seen, slab, false)
		}
	}
	return slab
}

// addCandidate adds the candidate over route p, with link IDs ids and
// fibre length l, unless its route was offered before or its probability
// is zero or (unless skipMinProb) below MinProb. The candidate is the
// next element of slab, whose growth keeps earlier elements in place.
func (s *Set) addCandidate(p graph.Path, ids []int, l float64, seen *pathSet, slab []Candidate, skipMinProb bool) []Candidate {
	if !seen.add(p) {
		return slab
	}
	prob := s.Net.SegmentProbKM(p, l)
	if prob <= 0 || !skipMinProb && prob < s.opts.MinProb {
		return slab
	}
	if len(slab) == cap(slab) {
		slab = make([]Candidate, 0, max(64, 2*cap(slab)))
	}
	slab = append(slab, Candidate{Path: p, EdgeIDs: ids, Prob: prob, LengthKM: l, Decay: math.Exp(-l / DecayKM)})
	c := &slab[len(slab)-1]
	pk := MakePairKey(p[0], p[len(p)-1])
	s.ByPair[pk] = append(s.ByPair[pk], c)
	return slab
}

// pathSet is the set of sub-paths Build has already offered as candidates,
// up to orientation: a path and its reverse are one member, as they share
// one topo.Key. Members are the SD paths' own sub-slices, not copies, and
// are chained per FNV-1a hash of the node sequence read from the smaller
// endpoint, so a lookup builds no key.
type pathSet struct {
	head  map[uint64]int32 // hash → latest member with it
	paths []graph.Path
	next  []int32 // earlier member with the same hash, or −1
}

// add inserts p and reports whether it was new.
func (ps *pathSet) add(p graph.Path) bool {
	h := uint64(14695981039346656037)
	for i := range p {
		h ^= uint64(orientedAt(p, i))
		h *= 1099511628211
	}
	first, ok := ps.head[h]
	if !ok {
		first = -1
	}
	for j := first; j >= 0; j = ps.next[j] {
		if sameOriented(ps.paths[j], p) {
			return false
		}
	}
	ps.head[h] = int32(len(ps.paths))
	ps.paths = append(ps.paths, p)
	ps.next = append(ps.next, first)
	return true
}

// orientedAt is node i of p read from its smaller endpoint, the order
// topo.Key writes it in.
func orientedAt(p graph.Path, i int) int {
	if p[0] > p[len(p)-1] {
		return p[len(p)-1-i]
	}
	return p[i]
}

// sameOriented reports whether a and b are one path up to orientation.
func sameOriented(a, b graph.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if orientedAt(a, i) != orientedAt(b, i) {
			return false
		}
	}
	return true
}

func (s *Set) trimAndSort() {
	for pk, list := range s.ByPair {
		sort.SliceStable(list, func(i, j int) bool {
			if list[i].Prob != list[j].Prob {
				return list[i].Prob > list[j].Prob
			}
			return list[i].Hops() < list[j].Hops()
		})
		if len(list) > s.opts.MaxCandidatesPerPair {
			list = list[:s.opts.MaxCandidatesPerPair]
		}
		s.ByPair[pk] = list
	}
}

func (s *Set) buildSegGraph() {
	s.SegGraph = graph.New(s.Net.NumNodes())
	keys := make([]PairKey, 0, len(s.ByPair))
	for pk := range s.ByPair {
		keys = append(keys, pk)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].U != keys[j].U {
			return keys[i].U < keys[j].U
		}
		return keys[i].V < keys[j].V
	})
	s.EdgePairs = make([]PairKey, 0, len(keys))
	s.ByEdge = make([][]*Candidate, 0, len(keys))
	// Edge IDs follow (U, V) order, so numbering each edge's candidates
	// in KeyLess order, edge by edge, gives IDs in (U, V, Key) order.
	// Paths are deduplicated by key, so that order is strict.
	var byKey []*Candidate
	next := 0
	for _, pk := range keys {
		id := s.SegGraph.AddEdge(pk.U, pk.V, 1)
		s.EdgePairs = append(s.EdgePairs, pk)
		s.ByEdge = append(s.ByEdge, s.ByPair[pk])
		s.EdgeOf[pk] = id
		byKey = append(byKey[:0], s.ByPair[pk]...)
		slices.SortFunc(byKey, func(a, b *Candidate) int {
			if KeyLess(a.Path, b.Path) {
				return -1
			}
			if KeyLess(b.Path, a.Path) {
				return 1
			}
			return 0
		})
		for _, c := range byKey {
			c.ID = next
			c.PairID = id
			next++
		}
	}
}

// KeyLess reports whether topo.Key(a) < topo.Key(b) without building the
// keys. A key orients the path from its smaller endpoint and writes each
// node as its low three bytes, least significant first, then '.', so keys
// compare node by node on those bytes in that order, and a proper prefix
// sorts first.
func KeyLess(a, b graph.Path) bool {
	ra := len(a) > 1 && a[0] > a[len(a)-1]
	rb := len(b) > 1 && b[0] > b[len(b)-1]
	for i := 0; i < len(a) && i < len(b); i++ {
		u, v := a[i], b[i]
		if ra {
			u = a[len(a)-1-i]
		}
		if rb {
			v = b[len(b)-1-i]
		}
		for shift := 0; shift < 24; shift += 8 {
			if x, y := byte(u>>shift), byte(v>>shift); x != y {
				return x < y
			}
		}
	}
	return len(a) < len(b)
}

// For returns the candidates for an endpoint pair, best first.
func (s *Set) For(a, b int) []*Candidate {
	return s.ByPair[MakePairKey(a, b)]
}

// CandidateFor returns the candidate with exactly the given physical route
// (same orientation), or nil. Checkpoint restore uses it to re-link
// deserialized segments to the catalogue's candidate objects, so pointer
// identity — which structural comparisons of slot results depend on — is
// re-established against the deterministically rebuilt catalogue.
func (s *Set) CandidateFor(a, b int, path []int) *Candidate {
	for _, c := range s.For(a, b) {
		if len(c.Path) != len(path) {
			continue
		}
		match := true
		for i, v := range c.Path {
			if v != path[i] {
				match = false
				break
			}
		}
		if match {
			return c
		}
	}
	return nil
}

// ConnCap returns the per-SD-pair connection cap N_i = min(m_s, m_d) of
// formulation (1), read from memory (nil = the network's memory table).
func (s *Set) ConnCap(memory []int) []int {
	if memory == nil {
		memory = s.Net.Memory
	}
	caps := make([]int, len(s.Pairs))
	for i, sd := range s.Pairs {
		caps[i] = min(memory[sd.S], memory[sd.D])
	}
	return caps
}

// NumPairsWithCandidates returns how many endpoint pairs have candidates.
func (s *Set) NumPairsWithCandidates() int { return len(s.ByPair) }

// NumCandidates returns the total candidate count.
func (s *Set) NumCandidates() int {
	n := 0
	for _, l := range s.ByPair {
		n += len(l)
	}
	return n
}

// UsedLinks returns the sorted set of physical link IDs referenced by any
// candidate (the links that need LP capacity rows).
func (s *Set) UsedLinks() []int {
	used := make(map[int]struct{})
	for _, list := range s.ByPair {
		for _, c := range list {
			for _, id := range c.EdgeIDs {
				used[id] = struct{}{}
			}
		}
	}
	out := make([]int, 0, len(used))
	for id := range used {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// UsedEndpoints returns the sorted set of nodes that appear as a candidate
// endpoint (the nodes that need LP memory rows).
func (s *Set) UsedEndpoints() []int {
	used := make(map[int]struct{})
	for pk := range s.ByPair {
		used[pk.U] = struct{}{}
		used[pk.V] = struct{}{}
	}
	out := make([]int, 0, len(used))
	for u := range used {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}
