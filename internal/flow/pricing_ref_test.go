package flow

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"see/internal/graph"
	"see/internal/lp"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// refPriceScratch is the layered DP's scratch as it was before dominance
// pruning: first-reach frontiers with an inFrontier membership mark.
type refPriceScratch struct {
	dist       []float64
	logq       []float64
	prevNode   []int32
	prevEdge   []int32
	frontier   []int
	next       []int
	inFrontier []bool
	cands      []layerCand
}

func (ps *refPriceScratch) resize(layers, n int) {
	if len(ps.dist) != layers*n {
		ps.dist = make([]float64, layers*n)
		ps.logq = make([]float64, layers*n)
		ps.prevNode = make([]int32, layers*n)
		ps.prevEdge = make([]int32, layers*n)
	}
	if len(ps.inFrontier) != n {
		ps.inFrontier = make([]bool, n)
	}
}

// layeredPriceReference is layeredPrice as it was before dominance pruning,
// kept verbatim: every reached state is expanded, each frontier in the
// order its nodes were first reached, and all layers are reset per call.
// TestLayeredPriceMatchesReference pins the pruned DP to it.
func (m *model) layeredPriceReference(ps *refPriceScratch, i int, dualI, eps float64) (graph.Path, []int, float64) {
	sd := m.set.Pairs[i]
	g := m.set.SegGraph
	n := g.N()
	maxHops := m.opts.MaxJunctions + 1

	ps.resize(maxHops+1, n)
	dist, logq := ps.dist, ps.logq
	prevNode, prevEdge := ps.prevNode, ps.prevEdge
	// Only dist needs resetting: prevNode/prevEdge are read exclusively at
	// entries whose dist was written this call (reconstruct follows layers
	// h…1 of a finite-dist path), so stale values are never observed.
	for k := range dist {
		dist[k] = math.Inf(1)
	}
	dist[sd.S] = 0 // layer 0

	// frontier holds the nodes reached at the previous layer, in the order
	// they were first reached; next collects this layer's. The two buffers
	// swap roles every layer. inFrontier marks membership of next and is
	// all false between layers.
	frontier := append(ps.frontier[:0], sd.S)
	next := ps.next[:0]
	inFrontier := ps.inFrontier
	bestCost, negLogQ := m.bestCost, m.negLogQ
	for h := 1; h <= maxHops && len(frontier) > 0; h++ {
		next = next[:0]
		prevDist, prevLogq := dist[(h-1)*n:h*n], logq[(h-1)*n:h*n]
		hDist, hLogq := dist[h*n:(h+1)*n], logq[h*n:(h+1)*n]
		hNode, hEdge := prevNode[h*n:(h+1)*n], prevEdge[h*n:(h+1)*n]
		for _, u := range frontier {
			base := prevDist[u]
			var addLogq float64
			if u != sd.S {
				addLogq = negLogQ[u]
				if math.IsInf(addLogq, 1) {
					continue
				}
			}
			lq := prevLogq[u] + addLogq
			for _, e := range g.Neighbors(u) {
				// An arc with no usable realization costs +Inf, and
				// base + Inf never beats a stored distance.
				if nd := base + bestCost[e.ID]; nd < hDist[e.To] {
					hDist[e.To] = nd
					hLogq[e.To] = lq
					hNode[e.To] = int32(u)
					hEdge[e.To] = int32(e.ID)
					if !inFrontier[e.To] {
						inFrontier[e.To] = true
						next = append(next, e.To)
					}
				}
			}
		}
		for _, v := range next {
			inFrontier[v] = false
		}
		frontier, next = next, frontier
	}
	ps.frontier, ps.next = frontier, next

	// Rank layers by reduced cost; seeding (dualI = −Inf) accepts the best
	// finite layer unconditionally.
	effDual := dualI
	minRC := eps
	if math.IsInf(dualI, -1) {
		effDual = 0
		minRC = math.Inf(-1)
	}
	cands := ps.cands[:0]
	for h := 1; h <= maxHops; h++ {
		st := h*n + sd.D
		if math.IsInf(dist[st], 1) {
			continue
		}
		w := math.Exp(-logq[st])
		if rc := w - effDual - dist[st]; rc > minRC {
			cands = append(cands, layerCand{h: h, rc: rc, w: w})
		}
	}
	ps.cands = cands[:0] // keep the grown buffer; the loop below only shrinks it
	// Try candidates from best reduced cost down, skipping loopy walks.
	for len(cands) > 0 {
		best := 0
		for k := 1; k < len(cands); k++ {
			if cands[k].rc > cands[best].rc {
				best = k
			}
		}
		nodes, edges := reconstruct(prevNode, prevEdge, n, cands[best].h, sd.D)
		if nodes.Loopless() {
			return nodes, edges, cands[best].w
		}
		cands[best] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return nil, nil, 0
}

// gridSet builds a k×k grid of equal-length links (Delta 0, so every link
// has the same success probability and cost ties are common) with pairs
// between opposite corners, opposite edge midpoints and random nodes. With
// deadQ, every fifth node cannot swap (q = 0).
func gridSet(t *testing.T, k int, rng *rand.Rand, deadQ bool) *segment.Set {
	t.Helper()
	var b strings.Builder
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			q := 0.9
			if deadQ && (y*k+x)%5 == 2 {
				q = 0
			}
			fmt.Fprintf(&b, "node %d %d %d 10 %g\n", y*k+x, 50*x, 50*y, q)
		}
	}
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			if x+1 < k {
				fmt.Fprintf(&b, "link %d %d 50\n", y*k+x, y*k+x+1)
			}
			if y+1 < k {
				fmt.Fprintf(&b, "link %d %d 50\n", y*k+x, (y+1)*k+x)
			}
		}
	}
	cfg := topo.DefaultConfig()
	cfg.Delta = 0
	net, err := topo.LoadEdgeList(strings.NewReader(b.String()), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := k*k - 1
	pairs := []topo.SDPair{{S: 0, D: last}, {S: k - 1, D: last - (k - 1)}, {S: k / 2, D: last - k/2}}
	for len(pairs) < 6 {
		s, d := rng.Intn(k*k), rng.Intn(k*k)
		if s != d {
			pairs = append(pairs, topo.SDPair{S: s, D: d})
		}
	}
	set, err := segment.Build(net, pairs, segment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func waxmanPricingSet(t *testing.T, jitter float64, seed int64) *segment.Set {
	t.Helper()
	cfg := topo.DefaultConfig()
	cfg.Nodes = 60
	cfg.SwapProbJitter = jitter
	net, err := topo.Generate(cfg, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 8, xrand.New(seed+100))
	set, err := segment.Build(net, pairs, segment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// pricingRound is one set of master duals; dualI of −Inf is the seeding
// round.
type pricingRound struct {
	name  string
	duals []float64
	dualI []float64
}

func pricingRounds(m *model, rng *rand.Rand) []pricingRound {
	numRows, numPairs := m.numRows, len(m.set.Pairs)
	fill := func(v float64) []float64 {
		y := make([]float64, numRows)
		for i := range y {
			y[i] = v
		}
		return y
	}
	seed := make([]float64, numPairs)
	for i := range seed {
		seed[i] = math.Inf(-1)
	}
	rounds := []pricingRound{
		{"seed", fill(1), seed},
		{"unit", fill(1), fill(1)[:numPairs]},
		{"zero", fill(0), fill(0)[:numPairs]},
	}
	// Expensive links and free memory: long segments cost more than chains
	// of short ones, so multi-hop walks win and equal-cost ties reach the
	// winning walk.
	links := fill(0)
	for _, r := range m.linkRow {
		if r >= 0 {
			links[r] = 10
		}
	}
	rounds = append(rounds, pricingRound{"links", links, fill(0)[:numPairs]})
	// Seeding rounds over a few repeated dual values: equal-cost walks to
	// the same node are common, so they pin the DP's tie-break.
	for r := 0; r < 6; r++ {
		y := make([]float64, numRows)
		level := float64(rng.Intn(20)) / float64(1+rng.Intn(20))
		for i := range y {
			switch rng.Intn(3) {
			case 1:
				y[i] = level
			case 2:
				y[i] = float64(rng.Intn(3))
			}
		}
		rounds = append(rounds, pricingRound{fmt.Sprintf("ties%d", r), y, seed})
	}
	for r := 0; r < 4; r++ {
		y := make([]float64, numRows)
		for i := range y {
			// Sparse, like an LP optimum's duals: most rows slack.
			if rng.Intn(3) == 0 {
				y[i] = rng.Float64() * 0.3
			}
		}
		di := make([]float64, numPairs)
		for i := range di {
			di[i] = rng.Float64()
		}
		rounds = append(rounds, pricingRound{fmt.Sprintf("random%d", r), y, di})
	}
	return rounds
}

// pricingStats counts what comparePricing saw: rounds that ran pruned,
// calls that returned a walk, the frontier entries layeredPrice expanded
// in the pruned rounds against those the dominance-only DP expands on
// them, in all of them and in the seeding ones alone, and the arcs
// layeredPrice scanned and the relaxations it stored in the pruned rounds.
type pricingStats struct {
	pruned        int
	priced        int
	expanded      int
	dominance     int
	seedExpanded  int
	seedDominance int
	scanned       int
	stored        int
}

// poisonScratch sizes ps for m and fills its tables with values no call
// writes (NaN distances and logq, −1 predecessors), so a layeredPrice
// call that reads an entry it did not write this call fails the
// comparison or checkStoredWalks.
func poisonScratch(m *model, ps *priceScratch) {
	ps.resize(m.opts.MaxJunctions+2, m.set.SegGraph.N())
	for k := range ps.dist {
		ps.dist[k], ps.logq[k] = math.NaN(), math.NaN()
		ps.prevNode[k], ps.prevEdge[k] = -1, -1
	}
}

// checkStoredWalks requires, after a layeredPrice call on a poisoned
// scratch, that every finite distance at D in a built layer h is the
// layer-order cost of the h-hop walk from S its predecessors record: the
// extraction and the incumbent read D's distance at every layer, so a
// seed must never leave a value there that no relaxation stored. Layers
// past the last one built still hold the poison.
func checkStoredWalks(t *testing.T, name string, m *model, ps *priceScratch, i int) {
	t.Helper()
	sd, g := m.set.Pairs[i], m.set.SegGraph
	n := g.N()
	for h := 1; h <= m.opts.MaxJunctions+1; h++ {
		d := ps.dist[h*n+sd.D]
		if math.IsNaN(d) {
			break
		}
		if math.IsInf(d, 1) {
			continue
		}
		nodes := make([]int, h+1)
		edges := make([]int, h)
		v := sd.D
		for layer := h; layer > 0; layer-- {
			nodes[layer] = v
			u, id := int(ps.prevNode[layer*n+v]), int(ps.prevEdge[layer*n+v])
			if u < 0 || u >= n || !slices.ContainsFunc(g.Neighbors(u), func(e graph.Edge) bool { return e.ID == id && e.To == v }) {
				t.Fatalf("%s commodity %d: layer %d distance %v at D, but layer %d records no arc %d→%d (edge %d)",
					name, i, h, d, layer, u, v, id)
			}
			edges[layer-1], v = id, u
		}
		nodes[0] = v
		var cost float64 // summed in layer order, as the DP's dist
		for _, id := range edges {
			cost += m.bestCost[id]
		}
		if v != sd.S || math.Float64bits(cost) != math.Float64bits(d) {
			t.Fatalf("%s commodity %d: layer %d distance %v at D, but its recorded walk %v (edges %v) starts at %d and costs %v",
				name, i, h, d, nodes, edges, v, cost)
		}
	}
}

// comparePricing prices every commodity of every round with layeredPrice
// and layeredPriceReference and requires identical nodes, edges and weight
// bits. layeredPrice runs on a poisoned scratch (poisonScratch), and its
// distances at D must be those of recorded walks (checkStoredWalks). The
// dominance-only DP's expansions are counted by calling layeredPrice with
// every goalW at +Inf, where every state passes the bound whatever the
// incumbent.
func comparePricing(t *testing.T, name string, m *model, rounds []pricingRound) pricingStats {
	t.Helper()
	ps, rs, ds := &priceScratch{}, &refPriceScratch{}, &priceScratch{}
	goalW, noBound := m.goalW, make([]float64, len(m.goalW))
	for h := range noBound {
		noBound[h] = math.Inf(1)
	}
	var st pricingStats
	for _, r := range rounds {
		if err := m.priceRealizations(nil, r.duals); err != nil {
			t.Fatal(err)
		}
		expanded, dominance := ps.expanded, ds.expanded
		scanned, stored := ps.scanned, ps.stored
		for i := range m.set.Pairs {
			poisonScratch(m, ps)
			nodes, edges, w := m.layeredPrice(ps, i, r.dualI[i], epsilon)
			rNodes, rEdges, rw := m.layeredPriceReference(rs, i, r.dualI[i], epsilon)
			if fmt.Sprint(nodes, edges) != fmt.Sprint(rNodes, rEdges) || math.Float64bits(w) != math.Float64bits(rw) {
				t.Fatalf("%s round %s commodity %d: got %v %v w=%v, reference %v %v w=%v",
					name, r.name, i, nodes, edges, w, rNodes, rEdges, rw)
			}
			checkStoredWalks(t, name+" round "+r.name, m, ps, i)
			if nodes != nil {
				st.priced++
			}
			m.goalW = noBound
			m.layeredPrice(ds, i, r.dualI[i], epsilon)
			m.goalW = goalW
		}
		if m.pruneDominated {
			st.pruned++
			st.expanded += ps.expanded - expanded
			st.dominance += ds.expanded - dominance
			st.scanned += ps.scanned - scanned
			st.stored += ps.stored - stored
			if math.IsInf(r.dualI[0], -1) {
				st.seedExpanded += ps.expanded - expanded
				st.seedDominance += ds.expanded - dominance
			}
		}
	}
	return st
}

// trajectoryRounds runs column generation on set as run does and returns
// the duals of every optimal master solve as a pricing round, in order, so
// the rounds are the ones a real solve prices.
func trajectoryRounds(t *testing.T, set *segment.Set, opts Options) []pricingRound {
	t.Helper()
	m, err := newModel(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	priced := make([]pricedPath, len(set.Pairs))
	if err := m.priceRealizations(nil, unitDuals(m.numRows)); err != nil {
		t.Fatal(err)
	}
	if err := m.priceColumns(nil, nil, epsilon, priced); err != nil {
		t.Fatal(err)
	}
	for i := range priced {
		m.insertColumn(i, &priced[i])
	}
	var rounds []pricingRound
	for r := 0; r < m.opts.MaxRounds; r++ {
		status, err := m.solver.SolveCtx(nil)
		if err != nil || status != lp.StatusOptimal {
			t.Fatalf("master solve %d: status %v, err %v", r, status, err)
		}
		duals := m.solver.Duals()
		rounds = append(rounds, pricingRound{fmt.Sprintf("master%d", r), duals, duals[:len(set.Pairs)]})
		if err := m.priceRealizations(nil, duals); err != nil {
			t.Fatal(err)
		}
		if err := m.priceColumns(nil, duals, epsilon, priced); err != nil {
			t.Fatal(err)
		}
		added := 0
		for i := range priced {
			if m.insertColumn(i, &priced[i]) {
				added++
			}
		}
		if added == 0 {
			break
		}
	}
	return rounds
}

// thresholds returns, per round and commodity, the dual_i at which the
// reduced cost of the commodity's winning walk (the walk a seeding round
// returns under the round's link and memory duals) crosses eps:
// w − cost − eps, NaN when no walk exists.
func thresholds(t *testing.T, m *model, rounds []pricingRound) [][]float64 {
	t.Helper()
	rs := &refPriceScratch{}
	out := make([][]float64, len(rounds))
	for k, r := range rounds {
		if err := m.priceRealizations(nil, r.duals); err != nil {
			t.Fatal(err)
		}
		out[k] = make([]float64, len(m.set.Pairs))
		for i := range out[k] {
			out[k][i] = math.NaN()
			if _, edges, w := m.layeredPriceReference(rs, i, math.Inf(-1), epsilon); edges != nil {
				var cost float64 // summed in layer order, as the DP's dist
				for _, id := range edges {
					cost += m.bestCost[id]
				}
				out[k][i] = w - cost - epsilon
			}
		}
	}
	return out
}

// boundaryRounds returns a copy of each round whose dual_i is move(θ_i),
// θ_i its threshold; commodities with no walk keep the round's dual.
func boundaryRounds(rounds []pricingRound, thresh [][]float64, name string, move func(float64) float64) []pricingRound {
	out := make([]pricingRound, len(rounds))
	for k, r := range rounds {
		di := append([]float64(nil), r.dualI...)
		for i, v := range thresh[k] {
			if !math.IsNaN(v) {
				di[i] = move(v)
			}
		}
		out[k] = pricingRound{r.name + " " + name, r.duals, di}
	}
	return out
}

// paperPricingSet is one paper-default instance: 200 nodes, 20 pairs.
func paperPricingSet(t *testing.T, seed int64) *segment.Set {
	t.Helper()
	net, err := topo.Generate(topo.DefaultConfig(), xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	set, err := segment.Build(net, topo.ChooseSDPairs(net, 20, xrand.New(seed+100)), segment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestLayeredPriceMatchesReference pins the pruned layered DP (dominance
// rule, goal bound and incumbent) to the pre-pruning one, call for call,
// on Waxman sets with uniform and jittered q, a paper-default instance and
// equal-length grids where cost ties are common, under seeding, unit,
// zero, link-heavy, tie-heavy and random duals, at the default junction
// bound and at small ones where the last layer often wins. On the Waxman
// sets and the paper-default instance it also prices the duals of every
// master solve of a real column generation (trajectory rounds), and, for
// every third of those, rounds whose dual_i sits on and either side of the
// winning walk's threshold (±1 ulp, ±10⁻⁹), where the goal bound is
// tightest. The bound (goalW against the incumbent) must expand at most
// 60% of the dominance-only DP's frontier entries on the trajectory rounds
// and on the seeding rounds, so a bound that stops firing fails here, and
// the pruned layers, seeded with the dominance bound, must store at most
// 30% of the arcs they scan on the trajectory rounds. Every call runs on a
// poisoned scratch and has its distances at D checked against the walks
// it records (comparePricing).
func TestLayeredPriceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type instance struct {
		name         string
		set          *segment.Set
		maxJunctions int
		dropDead     bool
		trajectory   bool
	}
	var insts []instance
	for _, jitter := range []float64{0, 0.05} {
		for seed := int64(1); seed <= 3; seed++ {
			insts = append(insts, instance{fmt.Sprintf("waxman jitter=%g seed=%d", jitter, seed), waxmanPricingSet(t, jitter, seed), 0, false, true})
		}
	}
	insts = append(insts, instance{"paper-default seed=1", paperPricingSet(t, 1), 0, false, true})
	for k := 3; k <= 8; k++ {
		set := gridSet(t, k, rng, false)
		insts = append(insts, instance{fmt.Sprintf("grid k=%d", k), set, 0, false, false})
		for d := 0; k >= 4 && d < 3; d++ {
			insts = append(insts, instance{fmt.Sprintf("grid k=%d dead-links %d", k, d), set, 0, true, false})
		}
		if k >= 6 {
			insts = append(insts,
				instance{fmt.Sprintf("grid k=%d junctions=%d", k, k-4), set, k - 4, false, false},
				instance{fmt.Sprintf("grid k=%d dead-q", k), gridSet(t, k, rng, true), 0, false, false})
		}
	}
	var traj, seed, below, above pricingStats
	for _, in := range insts {
		opts := Options{SwapWeightedObjective: true, MaxJunctions: in.maxJunctions}
		if in.dropDead {
			// A third of the links are down: segments over them leave the
			// column space, and so do their arcs when no realization is
			// left, which changes the frontier order.
			opts.DropDeadLinks = true
			opts.Channels = append([]int(nil), in.set.Net.Channels...)
			for l := range opts.Channels {
				if rng.Intn(3) == 0 {
					opts.Channels[l] = 0
				}
			}
		}
		m, err := newModel(in.set, opts)
		if err != nil {
			t.Fatal(err)
		}
		uniform := !strings.Contains(in.name, "jitter=0.05") && !strings.Contains(in.name, "dead-q")
		if m.uniformQ != uniform {
			t.Fatalf("%s: uniformQ = %v, want %v", in.name, m.uniformQ, uniform)
		}
		rounds := pricingRounds(m, rng)
		st := comparePricing(t, in.name, m, rounds)
		seed.seedExpanded += st.seedExpanded
		seed.seedDominance += st.seedDominance
		if want := len(rounds); !uniform {
			if st.pruned != 0 {
				t.Fatalf("%s: %d rounds pruned with heterogeneous q", in.name, st.pruned)
			}
		} else if st.pruned != want {
			t.Fatalf("%s: %d of %d rounds pruned with uniform q", in.name, st.pruned, want)
		}
		if !in.trajectory {
			continue
		}
		master := trajectoryRounds(t, in.set, opts)
		st = comparePricing(t, in.name, m, master)
		t.Logf("%s: %d trajectory rounds, %d pruned, %d of %d dominance-kept frontier entries expanded, %d of %d scanned arcs stored",
			in.name, len(master), st.pruned, st.expanded, st.dominance, st.stored, st.scanned)
		traj.expanded += st.expanded
		traj.dominance += st.dominance
		traj.scanned += st.scanned
		traj.stored += st.stored
		// Every third master round is enough to straddle the thresholds,
		// and keeps the race run short.
		var sample []pricingRound
		for k := 0; k < len(master); k += 3 {
			sample = append(sample, master[k])
		}
		thresh := thresholds(t, m, sample)
		for k := -1; k <= 1; k++ {
			comparePricing(t, in.name, m, boundaryRounds(sample, thresh, fmt.Sprintf("%+d ulps", k),
				func(v float64) float64 { return ulps(v, k) }))
		}
		b := comparePricing(t, in.name, m, boundaryRounds(sample, thresh, "−1e-9", func(v float64) float64 { return v - 1e-9 }))
		a := comparePricing(t, in.name, m, boundaryRounds(sample, thresh, "+1e-9", func(v float64) float64 { return v + 1e-9 }))
		below.priced += b.priced
		above.priced += a.priced
	}
	if traj.dominance == 0 || 10*traj.expanded > 6*traj.dominance {
		t.Fatalf("trajectory rounds: bound expanded %d of %d dominance-kept frontier entries, want at most 60%%",
			traj.expanded, traj.dominance)
	}
	// A layer seeded with best[v] stores only relaxations that beat every
	// shorter walk to their node; at +Inf it stores about 40% of the
	// scanned arcs here, seeded about 20%.
	if traj.scanned == 0 || 10*traj.stored > 3*traj.scanned {
		t.Fatalf("trajectory rounds: %d of %d scanned arcs stored, want at most 30%%", traj.stored, traj.scanned)
	}
	// Seeding rounds have no dual to bound against until the first walk
	// reaches d; from then on the incumbent prunes them too.
	if seed.seedDominance == 0 || 10*seed.seedExpanded > 6*seed.seedDominance {
		t.Fatalf("seeding rounds: bound expanded %d of %d dominance-kept frontier entries, want at most 60%%",
			seed.seedExpanded, seed.seedDominance)
	}
	t.Logf("trajectory rounds: %d of %d frontier entries expanded, %d of %d scanned arcs stored; seeding rounds: %d of %d; boundary rounds: %d walks below the thresholds, %d above",
		traj.expanded, traj.dominance, traj.stored, traj.scanned, seed.seedExpanded, seed.seedDominance, below.priced, above.priced)
	// Just below its threshold a commodity's winning walk qualifies, just
	// above it does not: the boundary rounds straddle the bound.
	if below.priced == 0 || above.priced >= below.priced {
		t.Fatalf("boundary rounds priced %d walks below the thresholds and %d above", below.priced, above.priced)
	}
}

// ulps moves v by k units in the last place.
func ulps(v float64, k int) float64 {
	for ; k > 0; k-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; k < 0; k++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// TestLayeredPriceNegativeCostUnpruned: rounds where some rows carry a
// negative dual, so some arc costs are negative and cycles can pay, take
// the full expansion and still match the reference. (Pruning such rounds
// does change results: a dominated state can lead to the only loopless
// walk once cheaper loopy ones are skipped.)
func TestLayeredPriceNegativeCostUnpruned(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sets := []*segment.Set{waxmanPricingSet(t, 0, 4)}
	for k := 4; k <= 8; k++ {
		sets = append(sets, gridSet(t, k, rng, false))
	}
	negRounds := 0
	for si, set := range sets {
		m, err := newModel(set, Options{SwapWeightedObjective: true})
		if err != nil {
			t.Fatal(err)
		}
		if !m.uniformQ {
			t.Fatal("uniform-q instance not detected")
		}
		for r := 0; r < 10; r++ {
			y := make([]float64, m.numRows)
			frac, scale := 2+rng.Intn(10), 3*rng.Float64()
			for i := range y {
				if rng.Intn(frac) == 0 {
					y[i] = -scale * rng.Float64()
				} else {
					y[i] = rng.Float64()
				}
			}
			di := make([]float64, len(set.Pairs))
			for i := range di {
				if r%2 == 0 {
					di[i] = math.Inf(-1)
				} else {
					di[i] = 4*rng.Float64() - 2
				}
			}
			name := fmt.Sprintf("negative%d", r)
			pruned := comparePricing(t, fmt.Sprintf("set %d", si), m, []pricingRound{{name, y, di}}).pruned == 1
			neg := false
			for _, c := range m.bestCost {
				neg = neg || c < 0
			}
			if pruned == neg {
				t.Fatalf("set %d %s: pruned=%v with a negative arc cost=%v", si, name, pruned, neg)
			}
			if neg {
				negRounds++
			}
		}
	}
	if negRounds < 30 {
		t.Fatalf("only %d rounds had a negative arc cost", negRounds)
	}
}

// TestLayeredPriceAllocs: once its scratch has grown, a pricing call that
// finds no walk allocates nothing, and one that returns a walk allocates
// exactly the walk's node and edge slices.
func TestLayeredPriceAllocs(t *testing.T) {
	m, err := newModel(waxmanPricingSet(t, 0, 1), Options{SwapWeightedObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.priceRealizations(nil, unitDuals(m.numRows)); err != nil {
		t.Fatal(err)
	}
	if !m.pruneDominated {
		t.Fatal("unit duals on a uniform-q set do not prune")
	}
	ps := &priceScratch{}
	for _, c := range []struct {
		name  string
		dualI float64
		want  float64 // 2 when the call returns a walk
	}{
		{"seeding", math.Inf(-1), 2},
		{"pricing", -1e9, 2},
		{"no walk", 10, 0},
	} {
		for i := range m.set.Pairs {
			if nodes, _, _ := m.layeredPrice(ps, i, c.dualI, epsilon); (nodes != nil) != (c.want > 0) {
				t.Fatalf("%s commodity %d: walk %v", c.name, i, nodes)
			}
			if got := testing.AllocsPerRun(20, func() { m.layeredPrice(ps, i, c.dualI, epsilon) }); got != c.want {
				t.Errorf("%s commodity %d: %v allocs per call, want %v", c.name, i, got, c.want)
			}
		}
	}
}
