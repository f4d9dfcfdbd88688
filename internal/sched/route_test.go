package sched

import (
	"math"
	"slices"
	"testing"

	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/xrand"
)

// TestRouteSearchMatchesDijkstra: routeSearch.find agrees with graph's
// targeted Dijkstra under the stitch weights (node weight −ln q, 1e9 for
// q = 0; edge weight 1e-5 while the pair has a segment left, 1e9 once it
// has none) on random pools with some pairs used up: it succeeds exactly
// when that route costs less than routeRejectThreshold, and then with the
// same nodes and aux edges. One search serves every query of a trial, and
// after the first query its epoch counter jumps to just below the wrap,
// so every trial's later queries run across the wrap-around, over stamps
// the first query left at epoch 1.
func TestRouteSearchMatchesDijkstra(t *testing.T) {
	wraps := 0
	for trial := 0; trial < 400; trial++ {
		rng := xrand.New(int64(trial))
		n := 2 + rng.Intn(12)
		q := make([]float64, n)
		for u := range q {
			switch rng.Intn(4) {
			case 0:
				q[u] = 0
			case 1:
				q[u] = 0.9
			default:
				q[u] = 0.3 + 0.7*rng.Float64()
			}
		}
		var segs []*qnet.Segment
		for j := rng.Intn(4 * n); j > 0; j-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				segs = append(segs, &qnet.Segment{A: min(u, v), B: max(u, v)})
			}
		}
		pool := qnet.NewPool(segs)
		aux := graph.New(n)
		var auxIdx []int
		for _, pi := range pool.SortedIndices() {
			pk := pool.KeyAt(pi)
			aux.AddEdge(pk.U, pk.V, routeAvailableWeight)
			auxIdx = append(auxIdx, pi)
		}
		for _, pi := range auxIdx {
			if rng.Intn(3) == 0 {
				for pool.TakeAt(pi) != nil {
				}
			}
		}
		opts := graph.DijkstraOptions{NodeCost: make([]float64, n), EdgeCost: make([]float64, len(auxIdx))}
		for u := range opts.NodeCost {
			opts.NodeCost[u] = routeMissingWeight
			if q[u] > 0 {
				opts.NodeCost[u] = -math.Log(q[u])
			}
		}
		for id, pi := range auxIdx {
			opts.EdgeCost[id] = routeMissingWeight
			if pool.AvailableAt(pi) >= 1 {
				opts.EdgeCost[id] = routeAvailableWeight
			}
		}
		var rs routeSearch
		rs.init(q)
		for k := 0; k < 12; k++ {
			s, d := rng.Intn(n), rng.Intn(n-1)
			if d >= s {
				d++
			}
			wantPath, wantEdges, dist := graph.ShortestPathEdgesTarget(aux, s, d, opts, nil)
			if dist >= routeRejectThreshold {
				wantPath, wantEdges = nil, nil
			}
			var gotPath graph.Path
			var gotEdges []int
			if rs.find(aux, s, d, pool, auxIdx) {
				gotPath = rs.appendPath(nil, s, d)
				for _, v := range gotPath[1:] {
					gotEdges = append(gotEdges, int(rs.prevEdge[v]))
				}
			}
			if !slices.Equal(gotPath, wantPath) || !slices.Equal(gotEdges, wantEdges) {
				t.Fatalf("trial %d query %d (%d→%d, epoch %d): route %v edges %v, Dijkstra %v edges %v (cost %v)",
					trial, k, s, d, rs.epoch, gotPath, gotEdges, wantPath, wantEdges, dist)
			}
			if k == 0 && rs.epoch == 1 {
				rs.epoch = math.MaxUint32 - uint32(rng.Intn(2))
			}
			if rs.epoch == 1 && k > 0 {
				wraps++
			}
		}
	}
	if wraps == 0 {
		t.Fatal("no query ran across the epoch wrap-around")
	}
}
