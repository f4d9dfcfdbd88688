package graph

import "slices"

// YenKShortest returns up to k loopless shortest paths from s to t in
// non-decreasing order of length, using Yen's algorithm over Dijkstra.
// Node weights in opts apply to intermediate nodes exactly as in Dijkstra.
// It returns fewer than k paths when the graph does not contain them.
//
// Every search, the first path's and each spur's, runs over one scratch
// for the whole call and stops once t is settled. A spur's bans never
// copy the graph: the spur search skips the banned arcs out of the spur
// node and the root-path nodes in place (see spurBan).
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
	accepted := []Path{sc.appendPath(nil, s, t)}

	type candidate struct {
		path Path
		len  float64
	}
	var candidates []candidate
	// known reports whether p was ever a candidate; candidates leave the
	// list only by being accepted.
	known := func(p Path) bool {
		for _, a := range accepted {
			if a.Equal(p) {
				return true
			}
		}
		for _, c := range candidates {
			if c.path.Equal(p) {
				return true
			}
		}
		return false
	}
	ban := spurBan{root: make([]uint32, g.N())}
	var total Path

	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		// For each node in the previous accepted path except the last,
		// branch on a deviation ("spur") from that node.
		for i := 0; i+1 < len(prev); i++ {
			spurNode := prev[i]
			rootPath := prev[:i+1]

			// Arcs to remove: for every accepted path sharing the root,
			// the arc it takes out of the spur node. Bans are (from, to)
			// pairs, so every parallel arc between the two is banned, the
			// standard Yen treatment for multigraphs.
			ban.targets = ban.targets[:0]
			for _, p := range accepted {
				if len(p) > i+1 && p[:i+1].Equal(rootPath) {
					ban.targets = append(ban.targets, p[i+1])
				}
			}
			// Nodes on the root path (except the spur node) are forbidden
			// to keep paths loopless.
			ban.epoch++
			for _, v := range prev[:i] {
				ban.root[v] = ban.epoch
			}
			if !sc.search(g, spurNode, t, 0, opts, &ban) {
				continue
			}
			total = sc.appendPath(append(total[:0], prev[:i]...), spurNode, t)
			if !total.Loopless() || known(total) {
				continue
			}
			p := slices.Clone(total)
			candidates = append(candidates, candidate{path: p, len: PathLength(g, p, opts)})
		}
		if len(candidates) == 0 {
			break
		}
		// A stable sort only asks whether cmp(a, b) < 0, so this is the
		// less "shorter, then lexicographically smaller" and nothing else.
		slices.SortStableFunc(candidates, func(a, b candidate) int {
			if a.len < b.len || a.len == b.len && lessPath(a.path, b.path) {
				return -1
			}
			return 1
		})
		accepted = append(accepted, candidates[0].path)
		candidates = candidates[1:]
	}
	return accepted
}

func lessPath(a, b Path) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
