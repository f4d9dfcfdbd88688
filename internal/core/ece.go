package core

import (
	"math"
	"math/rand"

	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/segment"
)

// Auxiliary-graph weights from Algorithm 3.
const (
	eceAvailableWeight = 1e-5
	eceMissingWeight   = 1e9
	// eceRejectThreshold rejects any path that traverses a missing
	// segment: a usable path costs at most hops·1e-5 + Σ(−ln q), far
	// below 1e8 for any q the simulator produces.
	eceRejectThreshold = 1e8
)

// establishFromPoolScratch implements Algorithm 3 (ECE) with in-slot swap
// sampling. First it satisfies provisioned paths whose segments all
// realized; then it greedily builds extra connections for under-served SD
// pairs from leftover segments via repeated shortest path on the auxiliary
// graph (node weight −ln q_u, edge weight 1e-5 when a segment is available,
// 1e9 otherwise).
//
// Swapping is sampled as each connection is assembled: a failed swap
// consumes the connection's segments but leaves the SD pair eligible, so
// redundant segments — which the provisioning LP paid for through the
// √(q_u·q_v) apportioning of constraint (1d) — back up swap failures. This
// is what makes redundant provisioning compensate swapping losses (and it
// is the only reading under which the paper's Fig. 5 scaling and the
// SEE→E2E convergence at low q are reproducible).
//
// The pool is caller-built (withdrawn carried segments mixed with the
// slot's fresh ones, so the runner can bank the leftovers afterwards). The
// per-pair counters, the auxiliary stitch graph and the Dijkstra buffers
// are recycled from the slot scratch, and the per-pair queries run the
// early-stop targeted Dijkstra. The established connections are always
// freshly allocated — they outlive the slot.
//
// It returns the established connections, the number of assembly attempts
// (established + swap-failed) and the assemblies rolled back for missing
// their fidelity floor.
func (e *Engine) establishFromPoolScratch(provisioned []PlannedPath, pool *qnet.Pool, rng *rand.Rand, sc *slotScratch) (established []*qnet.Connection, attempts, floorRejected int) {
	perPair := sc.perPair
	clear(perPair)
	var out []*qnet.Connection
	tr := e.Tracer()
	swapObs := qnet.SwapObserver(tr.SwapResolved)
	order := e.SlotConfig().SwapOrder
	fp := qnet.NewFloorPolicy(e.SlotConfig().FidelityFloors, e.Net)
	var floorDead []bool // provisioned paths proven unable to meet their floor

	// Lines 2–6: assign realized segments to provisioned paths. The pass
	// repeats while it makes progress so that redundant segments retry a
	// path whose swap failed (or establish a second connection over it).
	for {
		phaseAProgress := false
		for pi, p := range provisioned {
			if perPair[p.Commodity] >= e.ConnCap[p.Commodity] {
				continue
			}
			if floorDead != nil && floorDead[pi] {
				continue
			}
			ok := true
			for _, hop := range p.Hops {
				if pool.Available(hop.Pair) < 1 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			conn := &qnet.Connection{Pair: p.Commodity, Nodes: p.Nodes}
			for _, hop := range p.Hops {
				seg := fp.Take(pool, p.Commodity, hop.Pair)
				conn.Segments = append(conn.Segments, seg)
			}
			if fp.Rejects(p.Commodity, conn.Segments) {
				for _, s := range conn.Segments {
					pool.Return(s)
				}
				if floorDead == nil {
					floorDead = make([]bool, len(provisioned))
				}
				floorDead[pi] = true
				floorRejected++
				tr.Incident(sched.IncidentFloorReject, 1)
				continue
			}
			attempts++
			phaseAProgress = true
			ok = conn.EstablishOrderedObserved(e.Net, pool, rng, swapObs, order)
			tr.ConnectionAssembled(p.Commodity, ok)
			if ok {
				out = append(out, conn)
				perPair[p.Commodity]++
			}
		}
		if !phaseAProgress {
			break
		}
	}

	// Lines 7–15: auxiliary graph over realized segments.
	aux, auxPairs := e.buildAuxGraph(pool, sc)
	nodeWeight := func(u int) float64 {
		q := e.Net.SwapProb[u]
		if q <= 0 {
			return eceMissingWeight
		}
		return -math.Log(q)
	}
	edgeWeight := func(id int, _ float64) float64 {
		if pool.Available(auxPairs[id]) >= 1 {
			return eceAvailableWeight
		}
		return eceMissingWeight
	}
	dij := &sc.dij

	var floorDeadPair []bool // pairs whose best aux route missed the floor
	for {
		progress := false
		for i, sd := range e.Pairs {
			if perPair[i] >= e.ConnCap[i] {
				continue
			}
			if floorDeadPair != nil && floorDeadPair[i] {
				continue
			}
			path, dist := graph.ShortestPathTarget(aux, sd.S, sd.D, graph.DijkstraOptions{
				NodeWeight: nodeWeight,
				EdgeWeight: edgeWeight,
			}, dij)
			if path == nil || dist >= eceRejectThreshold {
				continue
			}
			conn := &qnet.Connection{Pair: i, Nodes: path}
			for h := 0; h+1 < len(path); h++ {
				seg := fp.Take(pool, i, segment.MakePairKey(path[h], path[h+1]))
				if seg == nil {
					// Unreachable if weights are consistent; roll back.
					for _, s := range conn.Segments {
						pool.Return(s)
					}
					conn = nil
					break
				}
				conn.Segments = append(conn.Segments, seg)
			}
			if conn == nil {
				continue
			}
			if fp.Rejects(i, conn.Segments) {
				for _, s := range conn.Segments {
					pool.Return(s)
				}
				if floorDeadPair == nil {
					floorDeadPair = make([]bool, len(e.Pairs))
				}
				floorDeadPair[i] = true
				floorRejected++
				tr.Incident(sched.IncidentFloorReject, 1)
				continue
			}
			attempts++
			progress = true
			ok := conn.EstablishOrderedObserved(e.Net, pool, rng, swapObs, order)
			tr.ConnectionAssembled(i, ok)
			if ok {
				out = append(out, conn)
				perPair[i]++
			}
		}
		if !progress {
			return out, attempts, floorRejected
		}
	}
}

// buildAuxGraph returns a graph with one edge per endpoint pair that has at
// least one realized segment, plus the pair keyed by edge ID. The graph
// and the pair table are rebuilt in place over the previous slot's backing
// arrays.
func (e *Engine) buildAuxGraph(pool *qnet.Pool, sc *slotScratch) (*graph.Graph, []segment.PairKey) {
	g := sc.aux
	g.Reset()
	auxPairs := sc.auxPairs[:0]
	for _, pk := range pool.Pairs() {
		g.AddEdge(pk.U, pk.V, eceAvailableWeight)
		auxPairs = append(auxPairs, pk)
	}
	sc.auxPairs = auxPairs
	return g, auxPairs
}
