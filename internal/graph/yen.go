package graph

import (
	"math"
	"slices"
)

// YenKShortest returns up to k loopless shortest paths from s to t in
// non-decreasing order of length, using Yen's algorithm over Dijkstra.
// Node weights in opts apply to intermediate nodes exactly as in Dijkstra.
// It returns fewer than k paths when the graph does not contain them.
//
// Every search, the first path's and each spur's, runs over one scratch
// for the whole call and stops once t is settled. A spur's bans never
// copy the graph: the spur search skips the banned arcs out of the spur
// node and the root-path nodes in place (see spurBan).
//
// Three rules cut the spur searches of textbook Yen without changing its
// output, ties included:
//
//   - Lawler's rule. Each path remembers the spur index it deviated at,
//     and the spurs of a newly accepted path start there, not at 0. A
//     spur search is a pure function of its root (which fixes the
//     forbidden root nodes) and its set of banned arcs. Below the
//     deviation index the new path shares its root with the path it
//     deviated from, and its arc out of the spur node is that path's,
//     already banned; so neither input has changed since that root was
//     last searched, and the skipped search could only return a path the
//     call already knows, which Yen discards.
//   - The bound. Once the candidate list holds need = k − len(accepted)
//     paths, let limit be the need-th candidate length. A path longer
//     than limit can never be accepted: need known candidates come first,
//     and limit only decreases as candidates are added. So each spur
//     search is bounded at limit − rootCost plus a 1e-9 relative slack
//     for the different summation order, and a spur whose bound is ≤ 0
//     is skipped. A bounded search does the same pushes and pops as the
//     unbounded search up to the point where it stops (see search), so a
//     path it does return is the unbounded one, and one it gives up on
//     was never acceptable.
//   - Goal direction. Under zero-value opts with k > 1 the call first
//     computes every node's distance h to t (one Dijkstra from t, over
//     reversed arcs unless g is undirected), and each spur search runs as
//     A* keyed on distance + h (see goalSearch). h stays a lower bound
//     under any bans, the search expands every node within
//     min(distance to t, bound)·(1 + 1e-9), and the one place where the
//     order of pops could pick another predecessor, an exact tie or a
//     relaxation reaching a settled node at or below its distance, makes
//     the spur rerun the plain search. The first path's search, and every
//     search under an option hook, stay plain.
func YenKShortest(g *Graph, s, t, k int, opts DijkstraOptions) []Path {
	if k <= 0 || s < 0 || t < 0 || s >= g.N() || t >= g.N() {
		return nil
	}
	if s == t {
		return []Path{{s}}
	}
	var sc DijkstraScratch
	if !sc.search(g, s, t, 0, opts, nil) {
		return nil
	}
	yenNote(&sc, false)

	type candidate struct {
		path Path
		len  float64
		// dev is the spur index the path deviated from its parent at.
		dev int
	}
	// cmp orders candidates shorter first, then lexicographically
	// smaller; distinct paths never tie.
	cmp := func(a, b candidate) int {
		switch {
		case a.len < b.len || a.len == b.len && lessPath(a.path, b.path):
			return -1
		case a.len == b.len && slices.Equal(a.path, b.path):
			return 0
		}
		return 1
	}
	accepted := []candidate{{path: sc.appendPath(nil, s, t)}}
	// h, every node's distance to t, turns the spur searches into A*
	// (goalSearch) when no option hook can change what a search sees.
	var h []float64
	if k > 1 && opts.NodeWeight == nil && opts.Forbidden == nil && opts.ForbiddenEdge == nil && opts.EdgeWeight == nil {
		h = sc.distancesTo(g, t)
		yenNote(&sc, false)
	}
	// candidates stays sorted by cmp, so the next accepted path is its
	// head and the need-th length is an index away.
	var candidates []candidate
	ban := spurBan{root: make([]uint32, g.N())}
	var total Path

	for len(accepted) < k {
		last := accepted[len(accepted)-1]
		prev := last.path
		need := k - len(accepted)
		// rootCost is PathLength(prev[:i+1]) plus, for i > 0, the node
		// weight of the spur node prev[i]: the cost of the path up to the
		// spur search's source, summed in PathLength's order.
		rootCost := 0.0
		// For each node in the previous accepted path except the last,
		// branch on a deviation ("spur") from that node.
		for i := 0; i+1 < len(prev); i++ {
			if i > 0 {
				rootCost += arcWeight(g, prev[i-1], prev[i], opts)
				if opts.NodeWeight != nil {
					rootCost += opts.NodeWeight(prev[i])
				}
			}
			if i < last.dev {
				continue
			}
			bound := 0.0
			if len(candidates) >= need {
				limit := candidates[need-1].len
				if bound = limit - rootCost + 1e-9*max(1, math.Abs(limit)); bound <= 0 {
					continue
				}
			}
			spurNode := prev[i]
			rootPath := prev[:i+1]

			// Arcs to remove: for every accepted path sharing the root,
			// the arc it takes out of the spur node. Bans are (from, to)
			// pairs, so every parallel arc between the two is banned, the
			// standard Yen treatment for multigraphs.
			ban.targets = ban.targets[:0]
			for _, a := range accepted {
				if p := a.path; len(p) > i+1 && p[:i+1].Equal(rootPath) {
					ban.targets = append(ban.targets, p[i+1])
				}
			}
			// Nodes on the root path (except the spur node) are forbidden
			// to keep paths loopless.
			ban.epoch++
			for _, v := range prev[:i] {
				ban.root[v] = ban.epoch
			}
			var found, exact bool
			if h != nil {
				found, exact = sc.goalSearch(g, spurNode, t, bound, h, &ban)
				yenNote(&sc, false)
			}
			if !exact {
				found = sc.search(g, spurNode, t, bound, opts, &ban)
				yenNote(&sc, h != nil)
			}
			if !found {
				continue
			}
			total = sc.appendPath(append(total[:0], prev[:i]...), spurNode, t)
			if !total.Loopless() || slices.ContainsFunc(accepted, func(a candidate) bool { return a.path.Equal(total) }) {
				continue
			}
			c := candidate{path: total, len: PathLength(g, total, opts), dev: i}
			at, known := slices.BinarySearchFunc(candidates, c, cmp)
			if known {
				continue
			}
			c.path = slices.Clone(total)
			candidates = slices.Insert(candidates, at, c)
		}
		if len(candidates) == 0 {
			break
		}
		accepted = append(accepted, candidates[0])
		candidates = candidates[1:]
	}
	out := make([]Path, len(accepted))
	for i, a := range accepted {
		out[i] = a.path
	}
	return out
}

// distancesTo returns every node's distance to t under the stored
// weights, Unreachable where t cannot be reached: one Dijkstra from t over
// g itself when g is undirected, over a reversed copy of its arcs
// otherwise. It leaves that search in sc.
func (sc *DijkstraScratch) distancesTo(g *Graph, t int) []float64 {
	r := g
	if !g.undirected {
		r = New(g.N())
		for u, es := range g.adj {
			for _, e := range es {
				r.AddArc(e.To, u, e.Weight)
			}
		}
	}
	sc.search(r, t, -1, 0, DijkstraOptions{}, nil)
	return slices.Clone(sc.dist)
}

// yenSearchHook, when non-nil, is handed the scratch after every search
// YenKShortest runs, and whether that search was a goal-directed spur's
// plain rerun. Only tests set it, and never while YenKShortest runs.
var yenSearchHook func(sc *DijkstraScratch, fallback bool)

func yenNote(sc *DijkstraScratch, fallback bool) {
	if hook := yenSearchHook; hook != nil {
		hook(sc, fallback)
	}
}

func lessPath(a, b Path) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
