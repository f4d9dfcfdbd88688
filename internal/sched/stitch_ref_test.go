package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// stitchRoutesReference is StitchRoutes as it was before the precomputed
// node weights and the skipped-pair memo: −ln q recomputed at every heap
// pop, edge availability read through Pool.Available, and every pair not
// capped or floor-dead searched again in every round. It builds its own
// aux graph and search buffers. TestStitchRoutesMatchesReference pins
// StitchRoutes to it.
func (s *Slot) stitchRoutesReference(pairs []topo.SDPair, connCap []int) (conns []*qnet.Connection, assembled, floorRejected int) {
	r := s.r
	pool := s.Pool
	perPair := r.perPair
	fp := qnet.NewFloorPolicy(r.cfg.FidelityFloors)
	// One aux edge per endpoint pair with a segment left, in sorted
	// order.
	aux := graph.New(r.net.NumNodes())
	var auxPairs []segment.PairKey
	for _, i := range pool.SortedIndices() {
		if pk := pool.KeyAt(i); available(pool, pk) > 0 {
			aux.AddEdge(pk.U, pk.V, routeAvailableWeight)
			auxPairs = append(auxPairs, pk)
		}
	}
	var dij graph.DijkstraScratch
	// The searches read −ln q per node and per aux edge whether its pair
	// has a segment left, refilled before each search from the pool of
	// that moment.
	opts := graph.DijkstraOptions{NodeCost: make([]float64, r.net.NumNodes()), EdgeCost: make([]float64, len(auxPairs))}
	for u, q := range r.net.SwapProb {
		opts.NodeCost[u] = routeMissingWeight
		if q > 0 {
			opts.NodeCost[u] = -math.Log(q)
		}
	}
	var floorDead []bool // pairs whose best route missed the floor
	for {
		progress := false
		for i, sd := range pairs {
			if perPair[i] >= connCap[i] {
				continue
			}
			if floorDead != nil && floorDead[i] {
				continue
			}
			for id, pk := range auxPairs {
				opts.EdgeCost[id] = routeMissingWeight
				if available(pool, pk) >= 1 {
					opts.EdgeCost[id] = routeAvailableWeight
				}
			}
			path, dist := graph.ShortestPathTarget(aux, sd.S, sd.D, opts, &dij)
			if path == nil || dist >= routeRejectThreshold {
				continue
			}
			conn := &qnet.Connection{Pair: i, Nodes: path}
			ok := true
			for h := 0; h+1 < len(path); h++ {
				seg := floorTake(fp, pool, i, segment.MakePairKey(path[h], path[h+1]))
				if seg == nil {
					// Unreachable while the weights are consistent.
					ok = false
					break
				}
				conn.Segments = append(conn.Segments, seg)
			}
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
				if floorDead == nil {
					floorDead = make([]bool, len(pairs))
				}
				floorDead[i] = true
				floorRejected++
				r.tracer.Incident(IncidentFloorReject, 1)
				continue
			}
			assembled++
			progress = true
			if s.establish(conn, nil) {
				conns = append(conns, conn)
				perPair[i]++
			}
		}
		if !progress {
			return conns, assembled, floorRejected
		}
	}
}

// stitchFixedReference is StitchFixed as it was before hops were resolved
// to pool indices: every availability check and take looks its endpoint
// pair up in the pool again. The differential test pins StitchFixed to it.
func (s *Slot) stitchFixedReference(paths []FixedPath, connCap []int) (conns []*qnet.Connection, assembled, floorRejected int) {
	r := s.r
	pool := s.Pool
	perPair := r.perPair
	fp := qnet.NewFloorPolicy(r.cfg.FidelityFloors)
	var floorDead []bool // paths proven unable to meet their floor
	for {
		progress := false
		for pi, p := range paths {
			if perPair[p.Commodity] >= connCap[p.Commodity] {
				continue
			}
			if floorDead != nil && floorDead[pi] {
				continue
			}
			ok := true
			for _, pk := range p.Hops {
				if available(pool, pk) < 1 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			conn := &qnet.Connection{Pair: p.Commodity, Nodes: p.Nodes}
			for _, pk := range p.Hops {
				conn.Segments = append(conn.Segments, floorTake(fp, pool, p.Commodity, pk))
			}
			if fp.Rejects(p.Commodity, conn.Segments) {
				for _, seg := range conn.Segments {
					pool.Return(seg)
				}
				if floorDead == nil {
					floorDead = make([]bool, len(paths))
				}
				floorDead[pi] = true
				floorRejected++
				r.tracer.Incident(IncidentFloorReject, 1)
				continue
			}
			assembled++
			progress = true
			if s.establish(conn, nil) {
				conns = append(conns, conn)
				perPair[p.Commodity]++
			}
		}
		if !progress {
			return conns, assembled, floorRejected
		}
	}
}

// available is the pair's unconsumed count, 0 for a pair the pool never
// held.
func available(pool *qnet.Pool, pk segment.PairKey) int {
	if i := pool.IndexOf(pk); i >= 0 {
		return pool.AvailableAt(i)
	}
	return 0
}

// floorTake is the by-pair take the reference loops use: the floor
// policy's draw from the pair's pool bucket, nil for a pair the pool never
// held.
func floorTake(fp qnet.FloorPolicy, pool *qnet.Pool, commodity int, pk segment.PairKey) *qnet.Segment {
	i := pool.IndexOf(pk)
	if i < 0 {
		return nil
	}
	return fp.TakeAt(pool, commodity, i)
}

// stitchOnly is a stitch-only engine for the differential test: the
// physical phase realizes exactly segs, and the stitch phase stitches the
// fixed plan's paths (if any) then routes, as SEE's ECE does. The fixed
// stage is FixedPlan.StitchPhase with cached, StitchFixed without, and
// stitchFixedReference with ref; the routed stage is StitchRoutes, or
// stitchRoutesReference with ref.
type stitchOnly struct {
	segs    []*qnet.Segment
	fixed   *FixedPlan
	pairs   []topo.SDPair
	connCap []int
	ref     bool
	cached  bool
}

func (p *stitchOnly) PlanPhase(*Slot) bool { return false }

func (p *stitchOnly) ReservePhase(*Slot) (plan, held qnet.AttemptPlan, err error) {
	return nil, nil, nil
}

func (p *stitchOnly) PhysicalHook(s *Slot) { s.Created = p.segs }

func (p *stitchOnly) StitchPhase(s *Slot) (assembled, floorRejected int) {
	if p.ref {
		var conns []*qnet.Connection
		if p.fixed != nil {
			conns, assembled, floorRejected = s.stitchFixedReference(p.fixed.Paths, p.connCap)
		}
		more, a, f := s.stitchRoutesReference(p.pairs, p.connCap)
		s.Result.Connections = append(append(s.Result.Connections, conns...), more...)
		return assembled + a, floorRejected + f
	}
	switch {
	case p.fixed == nil:
	case p.cached:
		assembled, floorRejected = p.fixed.StitchPhase(s)
	default:
		assembled, floorRejected = s.StitchFixed(p.fixed.Paths, p.connCap)
	}
	a, f := s.StitchRoutes(p.pairs, p.connCap)
	return assembled + a, floorRejected + f
}

// eventLog records the stitch loop's tracer events in order (timings
// excluded).
type eventLog struct {
	NopTracer
	events []string
}

func (l *eventLog) SwapResolved(junction int, ok bool) {
	l.events = append(l.events, fmt.Sprint("swap ", junction, ok))
}

func (l *eventLog) ConnectionAssembled(commodity int, ok bool) {
	l.events = append(l.events, fmt.Sprint("assembled ", commodity, ok))
}

func (l *eventLog) Incident(kind Incident, n int) {
	l.events = append(l.events, fmt.Sprint("incident ", kind, n))
}

// stitchSide is one of the two runs of the differential test, with its own
// copy of every segment (consumed state lives in the segments).
type stitchSide struct {
	r   Runner
	log *eventLog
	rng *rand.Rand
	idx map[*qnet.Segment]int
}

// TestStitchRoutesMatchesReference runs StitchRoutes and
// stitchRoutesReference side by side over random small networks (uniform
// and jittered swap probabilities, q = 0 nodes included), floors on and
// off, both swap orders and tight and loose connection caps, three slots
// per runner so the reused scratch carries over. In half the trials a few
// random fixed paths, some over pairs the pool never held, are stitched
// first by stitchFixedReference and, for all three slots, either by
// StitchFixed or by one FixedPlan's StitchPhase, whose hop indices are
// kept across slots while the pool learns new pairs; in half of those
// the paths carry their hops' pair IDs, some of them wrong, and the
// segments carry candidates with the pool's PairID cache keys. Every slot
// must give the same connections (nodes, segments, spares, fidelity), assembly and
// floor-rejection counts, per-pair counters, event stream, leftover pool
// and next rng draw.
//
// The last 150 trials split the nodes into two halves with every SD pair
// across the split and segments only inside a half, plus a bridge: one
// segment straight across, or spares across from a q = 0 junction. Once
// the bridge is used up, or through the junction from the start, a pair
// is reachable only over routes at or above the reject threshold, which
// is where StitchRoutes' bounded search gives up early.
func TestStitchRoutesMatchesReference(t *testing.T) {
	for trial := 0; trial < 450; trial++ {
		rng := xrand.New(int64(trial))
		n := 3 + rng.Intn(7)
		split := 0 // first node of the second half; 0 for no split
		if trial >= 300 {
			n = 4 + rng.Intn(7)
			split = n / 2
		}
		net := &topo.Network{G: graph.New(n), SwapProb: make([]float64, n)}
		uniform := rng.Intn(2) == 0
		for u := range net.SwapProb {
			switch {
			case uniform:
				net.SwapProb[u] = 0.9
			case rng.Intn(6) == 0:
				net.SwapProb[u] = 0
			default:
				net.SwapProb[u] = 0.3 + 0.7*rng.Float64()
			}
		}
		// junction is the q = 0 bridge end in the first half, or -1 for a
		// single straight bridge segment.
		junction := -1
		if split > 0 && rng.Intn(2) == 0 {
			junction = rng.Intn(split)
			net.SwapProb[junction] = 0
		}
		// half returns a random node of the first (0) or second (1) half,
		// or of the whole network without a split.
		half := func(h int) int {
			if split == 0 {
				return rng.Intn(n)
			}
			if h == 0 {
				return rng.Intn(split)
			}
			return split + rng.Intn(n-split)
		}
		cfg := SlotConfig{SwapOrder: qnet.SwapOrder(rng.Intn(2))}
		if rng.Intn(2) == 0 {
			cfg.FidelityFloors = &qnet.FloorSpec{Default: 0.5 + 0.4*rng.Float64()}
		}
		pairs := make([]topo.SDPair, 1+rng.Intn(5))
		connCap := make([]int, len(pairs))
		for i := range pairs {
			s, d := half(0), half(1)
			for d == s {
				d = half(1)
			}
			pairs[i] = topo.SDPair{S: s, D: d}
			connCap[i] = 100
			if rng.Intn(2) == 0 {
				connCap[i] = 1 + rng.Intn(2)
			}
		}
		sides := [2]*stitchSide{}
		for k := range sides {
			log := &eventLog{}
			c := cfg
			c.Tracer = log
			sides[k] = &stitchSide{r: NewRunner(c, net, nil), log: log, rng: xrand.New(int64(trial)), idx: map[*qnet.Segment]int{}}
		}
		// Fixed paths come from their own stream, so the routed half of
		// the test draws the same instances with or without them.
		frng := xrand.New(int64(trial) + 1<<32)
		var fixed []FixedPath
		for k := frng.Intn(8) - 3; k > 0; k-- {
			i := frng.Intn(len(pairs))
			fp := FixedPath{Commodity: i, Nodes: graph.Path{pairs[i].S}}
			for _, u := range frng.Perm(n)[:frng.Intn(3)] {
				if u != pairs[i].S && u != pairs[i].D {
					fp.Nodes = append(fp.Nodes, u)
				}
			}
			fp.Nodes = append(fp.Nodes, pairs[i].D)
			for h := 1; h < len(fp.Nodes); h++ {
				fp.Hops = append(fp.Hops, segment.MakePairKey(fp.Nodes[h-1], fp.Nodes[h]))
			}
			fixed = append(fixed, fp)
		}
		// In half the trials segments carry candidates with set-wide pair
		// IDs and fixed paths carry their hops' IDs, a quarter of them
		// wrong (another pair's, negative or past every ID), so the pool
		// resolves hops through its PairID cache and falls back to the
		// key map on a miss. They come from a third stream.
		irng := xrand.New(int64(trial) + 2<<32)
		withIDs := irng.Intn(2) == 0
		pairID := func(u, v int) int { return min(u, v)*n + max(u, v) }
		if withIDs {
			for k := range fixed {
				fp := &fixed[k]
				for h := 1; h < len(fp.Nodes); h++ {
					id := pairID(fp.Nodes[h-1], fp.Nodes[h])
					if irng.Intn(4) == 0 {
						id = []int{-1, n * n, pairID(irng.Intn(n), irng.Intn(n))}[irng.Intn(3)]
					}
					fp.PairIDs = append(fp.PairIDs, id)
				}
			}
		}
		var plans [2]*FixedPlan
		if fixed != nil {
			plans = [2]*FixedPlan{{Paths: fixed, ConnCap: connCap}, {Paths: fixed, ConnCap: connCap}}
		}
		cached := frng.Intn(2) == 0
		for slot := 0; slot < 3; slot++ {
			m := rng.Intn(4 * n)
			segs := [2][]*qnet.Segment{}
			for j := 0; j < m+3; j++ {
				var u, v int
				switch {
				case j < m:
					// Each half has at least two nodes.
					h := 0
					if split > 0 {
						h = rng.Intn(2)
					}
					u, v = half(h), half(h)
					for v == u {
						v = half(h)
					}
				case split == 0 || junction < 0 && j > m:
					continue
				case junction < 0:
					u, v = half(0), half(1)
				default:
					u, v = junction, half(1)
				}
				scale := []float64{0.3, 0.6, 1}[rng.Intn(3)]
				var cand *segment.Candidate
				if withIDs {
					cand = &segment.Candidate{Path: graph.Path{min(u, v), max(u, v)}, Decay: 1, PairID: pairID(u, v)}
				}
				for k, side := range sides {
					sg := &qnet.Segment{A: min(u, v), B: max(u, v), Cand: cand}
					sg.SetWernerScale(scale)
					side.idx[sg] = j
					segs[k] = append(segs[k], sg)
				}
			}
			var res [2]*SlotResult
			for k, side := range sides {
				ph := &stitchOnly{segs: segs[k], fixed: plans[k], pairs: pairs, connCap: connCap, ref: k == 1, cached: cached}
				got, err := side.r.Run(ph, side.rng, SlotResult{}, len(pairs))
				if err != nil {
					t.Fatal(err)
				}
				res[k] = got
			}
			where := fmt.Sprintf("trial %d slot %d", trial, slot)
			a, b := res[0], res[1]
			if a.Assembled != b.Assembled || a.FloorRejected != b.FloorRejected || a.Established != b.Established ||
				!slices.Equal(a.PerPair, b.PerPair) || !slices.Equal(sides[0].r.perPair, sides[1].r.perPair) {
				t.Fatalf("%s: assembled/rejected/established %d/%d/%d per pair %v, reference %d/%d/%d per pair %v",
					where, a.Assembled, a.FloorRejected, a.Established, a.PerPair,
					b.Assembled, b.FloorRejected, b.Established, b.PerPair)
			}
			mapped := func(k int, segs []*qnet.Segment) []int {
				out := make([]int, len(segs))
				for i, sg := range segs {
					out[i] = sides[k].idx[sg]
				}
				return out
			}
			for c := range a.Connections {
				ca, cb := a.Connections[c], b.Connections[c]
				if ca.Pair != cb.Pair || !ca.Nodes.Equal(cb.Nodes) || ca.Fidelity != cb.Fidelity ||
					!slices.Equal(mapped(0, ca.Segments), mapped(1, cb.Segments)) ||
					!slices.Equal(mapped(0, ca.Spares), mapped(1, cb.Spares)) {
					t.Fatalf("%s: connection %d = %+v, reference %+v", where, c, ca, cb)
				}
			}
			if !slices.Equal(mapped(0, sides[0].r.pool.AppendUnconsumed(nil)), mapped(1, sides[1].r.pool.AppendUnconsumed(nil))) {
				t.Fatalf("%s: leftover pools differ", where)
			}
			if !slices.Equal(sides[0].log.events, sides[1].log.events) {
				t.Fatalf("%s: events %v, reference %v", where, sides[0].log.events, sides[1].log.events)
			}
			if x, y := sides[0].rng.Int63(), sides[1].rng.Int63(); x != y {
				t.Fatalf("%s: next rng draw %d, reference %d", where, x, y)
			}
		}
	}
}
