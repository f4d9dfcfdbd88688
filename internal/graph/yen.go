package graph

import (
	"math"
	"slices"
)

// YenKShortest returns up to k loopless shortest paths from s to t in
// non-decreasing order of cost, using Yen's algorithm over Dijkstra.
// Node costs in opts apply to intermediate nodes exactly as in Dijkstra.
// It returns fewer than k paths when the graph does not contain them. It
// is YenScratch.KShortest on a fresh scratch.
func YenKShortest(g *Graph, s, t, k int, opts DijkstraOptions) []Path {
	var ys YenScratch
	return ys.KShortest(g, s, t, k, opts)
}

// YenScratch holds the buffers a Yen call reuses: the search scratch, the
// spur bans' root marks and the goal keys. The zero value is ready and
// grows on first use. A caller that runs many Yen calls, one at a time,
// keeps one scratch for all of them (one per worker of a parallel loop).
type YenScratch struct {
	sc  DijkstraScratch
	ban spurBan
	key []float64
}

// KShortest is YenKShortest on ys's buffers. The returned paths are the
// caller's; nothing in them aliases ys.
//
// With k > 1 the call first computes every node's distance to t under
// opts' costs, node costs included (one Dijkstra from t, over reversed
// arcs unless g is undirected), and folds it into the goal keys (see
// goalKeys). Every search, the first path's and each spur's, then runs as
// A* keyed on distance + key (see goalSearch) over one scratch, and stops
// once no node left can beat t. The key stays a lower bound under any
// bans, the search expands every node within
// min(distance to t, bound)·(1 + 1e-9), and the one place where the order
// of pops could pick another predecessor, an exact tie or a relaxation
// reaching a settled node at or below its distance, makes the search
// rerun as the plain targeted one. A k = 1 call runs the plain search
// alone. A spur's bans never copy the graph: the spur search skips the
// banned arcs out of the spur node and the root-path nodes in place (see
// spurBan).
//
// Two more rules cut the spur searches of textbook Yen without changing
// its output, ties included:
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
//     paths, let limit be the need-th candidate cost. A path costlier
//     than limit can never be accepted: need known candidates come first,
//     and limit only decreases as candidates are added. So each spur
//     search is bounded at limit − rootCost plus a 1e-9 relative slack
//     for the different summation order, and a spur whose bound is ≤ 0
//     is skipped. A bounded search does the same pushes and pops as the
//     unbounded search up to the point where it stops (see search), so a
//     path it does return is the unbounded one, and one it gives up on
//     was never acceptable.
func (ys *YenScratch) KShortest(g *Graph, s, t, k int, opts DijkstraOptions) []Path {
	if k <= 0 || s < 0 || t < 0 || s >= g.N() || t >= g.N() {
		return nil
	}
	if s == t {
		return []Path{{s}}
	}
	sc, ban := &ys.sc, &ys.ban
	ban.next(g.N())
	var key []float64
	if k > 1 && !yenPlain {
		key = ys.goalKeys(g, t, opts)
		yenNote(sc, yenDistances, false)
	}
	if !ys.search(g, s, t, 0, key, opts, yenFirst) {
		return nil
	}

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
	// candidates stays sorted by cmp, so the next accepted path is its
	// head and the need-th length is an index away.
	var candidates []candidate
	var total Path

	for len(accepted) < k {
		last := accepted[len(accepted)-1]
		prev := last.path
		need := k - len(accepted)
		// rootCost is PathLength(prev[:i+1]) plus, for i > 0, the node
		// cost of the spur node prev[i]: the cost of the path up to the
		// spur search's source, summed in PathLength's order.
		rootCost := 0.0
		// For each node in the previous accepted path except the last,
		// branch on a deviation ("spur") from that node.
		for i := 0; i+1 < len(prev); i++ {
			if i > 0 {
				rootCost += arcWeight(g, prev[i-1], prev[i], opts.EdgeCost)
				if opts.NodeCost != nil {
					rootCost += opts.NodeCost[prev[i]]
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
			ban.next(g.N())
			for _, a := range accepted {
				if p := a.path; len(p) > i+1 && p[:i+1].Equal(rootPath) {
					ban.targets = append(ban.targets, p[i+1])
				}
			}
			// Nodes on the root path (except the spur node) are forbidden
			// to keep paths loopless.
			for _, v := range prev[:i] {
				ban.root[v] = ban.epoch
			}
			if !ys.search(g, spurNode, t, bound, key, opts, yenSpur) {
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

// search runs one search of a Yen call from src to t under the current
// ban: goal-directed when the call has goal keys, plain when it has none or
// when the goal-directed search cannot vouch for its predecessors. The
// first path's search runs under a ban with no targets and no root.
func (ys *YenScratch) search(g *Graph, src, t int, bound float64, key []float64, opts DijkstraOptions, pass yenPass) bool {
	sc, ban := &ys.sc, &ys.ban
	if key != nil {
		found, exact := sc.goalSearch(g, src, t, bound, key, opts, ban)
		yenNote(sc, pass, false)
		if exact {
			return found
		}
	}
	found := sc.search(g, src, t, bound, opts, ban)
	yenNote(sc, pass, key != nil)
	return found
}

// next starts a fresh ban over n nodes: no targets, and an epoch no root
// mark carries.
func (b *spurBan) next(n int) {
	b.targets = b.targets[:0]
	if len(b.root) != n || b.epoch == math.MaxUint32 {
		b.root = slices.Grow(b.root[:0], n)[:n]
		clear(b.root)
		b.epoch = 0
	}
	b.epoch++
}

// goalKeys returns, in ys.key, every node's goal key for searches to t:
// its distance to t under opts' costs, node costs included (so the nodes
// between v and t pay theirs, and v and t do not), plus v's own node
// cost; 0 for t itself, and Unreachable where t cannot be reached. The
// distances come from one Dijkstra from t, over g itself when g is
// undirected, over a reversed copy of its arcs (carrying each arc's cost)
// otherwise; that search stays in ys.sc.
func (ys *YenScratch) goalKeys(g *Graph, t int, opts DijkstraOptions) []float64 {
	sc := &ys.sc
	if g.undirected {
		sc.search(g, t, -1, 0, opts, nil)
	} else {
		r := New(g.N())
		for u, es := range g.adj {
			for _, e := range es {
				w := e.Weight
				if opts.EdgeCost != nil {
					w = opts.EdgeCost[e.ID]
				}
				r.AddArc(e.To, u, w)
			}
		}
		sc.search(r, t, -1, 0, DijkstraOptions{NodeCost: opts.NodeCost}, nil)
	}
	key := append(ys.key[:0], sc.dist...)
	if nc := opts.NodeCost; nc != nil {
		for v, h := range key {
			if h != Unreachable && v != t {
				key[v] = h + nc[v]
			}
		}
	}
	ys.key = key
	return key
}

// yenPass names the search of a Yen call that yenSearchHook is handed.
type yenPass int

const (
	yenDistances yenPass = iota // the distances to t behind the goal keys
	yenFirst                    // the first path's search
	yenSpur                     // a spur's search
)

// yenSearchHook, when non-nil, is handed the scratch after every search
// YenKShortest runs, which pass it was, and whether it was a goal-directed
// search's plain rerun. Only tests set it, and never while YenKShortest
// runs.
var yenSearchHook func(sc *DijkstraScratch, pass yenPass, fallback bool)

// yenPlain, set only by tests, keeps every search of a Yen call plain, so
// that a work count has the searches goal direction saves to compare with.
var yenPlain bool

func yenNote(sc *DijkstraScratch, pass yenPass, fallback bool) {
	if hook := yenSearchHook; hook != nil {
		hook(sc, pass, fallback)
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
