// Package flow solves the LP relaxation of the paper's throughput
// maximization (formulation (1)) in path form via column generation.
//
// Aggregating formulation (1) over the per-connection index n (valid for
// the relaxation: the t^n_i are interchangeable and constraint (1g) only
// breaks symmetry), the LP becomes a packing problem over entanglement
// paths. A column is a path for SD pair i through the segment graph with a
// concrete physical realization chosen per segment; one unit of flow on the
// column provides one (expected) entanglement connection and consumes
//
//	1/(p^k_uv · √(q_u·q_v))
//
// attempts on segment (u,v) realized over physical segment k — which in
// turn consume one channel on each physical link of the realization and one
// unit of memory at each segment endpoint, exactly constraints (1d)–(1f).
//
// The master problem is the revised simplex in internal/lp. Each pricing
// round first prices every segment-arc at its cheapest realization under
// the current duals, then searches each SD pair's best path on the
// segment graph: a shortest-path query for the unit-weight objective of
// formulation (1), and a junction-layered dynamic program (layeredPrice)
// for the swap-weighted objective, whose column weight depends on the hop
// count. Pricing is exact (any non-minimal realization has no better
// reduced cost), so on convergence the solution is LP-optimal over the
// whole exponential column space.
//
// Both pricing stages parallelize deterministically (Options.Workers): the
// per-segment-edge realization scan and the per-commodity path searches
// write only per-index output slots, and the priced columns are inserted
// into the master in commodity order, so the column sequence — and with it
// the simplex basis trajectory and the returned Solution — is byte-identical
// at any worker count.
package flow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"see/internal/graph"
	"see/internal/lp"
	"see/internal/par"
	"see/internal/segment"
)

// SegHop is one segment of an entanglement path: the endpoint pair, its
// segment edge ID (Set.EdgeOf) and the physical realization chosen when
// the column was priced.
type SegHop struct {
	Pair segment.PairKey
	Edge int
	Cand *segment.Candidate
}

// PathFlow is one path column with positive flow in the LP optimum.
type PathFlow struct {
	// Commodity indexes the SD pair.
	Commodity int
	// Hops lists the segments from source to destination.
	Hops []SegHop
	// Nodes is the junction sequence s, …, d of the entanglement path.
	Nodes graph.Path
	// Flow is the fractional number of connections carried.
	Flow float64
}

// Solution is the LP optimum in path form.
type Solution struct {
	Status lp.Status
	// Objective is the LP value (upper bound on expected connections).
	Objective float64
	// PerCommodity is T_i = Σ flow of commodity i's paths.
	PerCommodity []float64
	// Paths lists all columns with positive flow.
	Paths []PathFlow
	// Rounds is the number of column-generation rounds used.
	Rounds int
	// Columns is the total number of columns generated.
	Columns int
}

// Options tunes the solve.
type Options struct {
	// MaxRounds caps column-generation rounds (default 120).
	MaxRounds int
	// ConnCap is the per-pair cap N_i; nil derives min(mem_s, mem_d).
	ConnCap []int
	// Epsilon is the reduced-cost threshold for adding a column
	// (default 1e-7).
	Epsilon float64
	// Channels, when non-nil, overrides the per-link channel capacities
	// (REPS's progressive rounding re-solves the LP on residual
	// capacities).
	Channels []int
	// Memory, when non-nil, overrides the per-node memory capacities.
	Memory []int
	// DropDeadLinks removes candidates crossing a link with zero effective
	// channel capacity — or ending at a node with zero effective memory —
	// from column pricing entirely (their attempt factor becomes +Inf)
	// instead of merely giving them a zero-capacity row. Fault-aware
	// engines enable it so forecast-dead elements never enter the column
	// space; because "effective" means the Channels/Memory override when
	// present and the network tables otherwise, the pricing trajectory on
	// a full topology with forecast overrides is byte-identical to the one
	// on the equivalent pre-shrunk topology with no overrides.
	DropDeadLinks bool
	// SwapWeightedObjective weights each path column by its junction swap
	// survival Π q_j instead of 1, so the LP maximizes *expected
	// established* connections rather than planned ones. Formulation (1)
	// uses weight 1 and only prices swapping into capacity (the √(q_u·q_v)
	// apportioning), which over-plans junction-heavy paths as q drops;
	// with this flag SEE's planning degrades gracefully toward the pure
	// all-optical solution at low q, matching the paper's Fig. 5.
	// Pricing stays exact via a junction-layered Dijkstra.
	SwapWeightedObjective bool
	// MaxJunctions bounds the junction count considered by the layered
	// pricing (default 14); only used with SwapWeightedObjective.
	MaxJunctions int
	// Workers bounds the goroutines used by each pricing round (the
	// per-segment-edge realization scan and the per-commodity path
	// searches). 0 means GOMAXPROCS, 1 is fully serial. The solve is
	// deterministic: the same inputs yield a byte-identical Solution at
	// any worker count.
	Workers int
	// CarryWeights, when non-nil, divides each segment edge's priced
	// realization cost by its weight (indexed by segment-graph edge ID;
	// weights are ≥ 1, with 1 meaning no bias). The carry-aware SEE
	// engine derives the weights from its banked inventory so column
	// generation prefers paths that can stitch through already-realized,
	// high-fidelity carried segments. The bias steers only which columns
	// pricing proposes — every generated column keeps its true
	// coefficients, so the returned Solution is a valid LP optimum over
	// the generated column set. Nil leaves pricing untouched.
	CarryWeights []float64
	// Arena, when non-nil, carries the dual-independent candidate tables,
	// the master simplex's buffers and the per-worker pricing scratch
	// across sequential solves (REPS's progressive rounding re-solves the
	// LP up to six times per engine build; the carry-aware SEE engine
	// re-solves every slot). Reuse never alters results: the tables are
	// pure functions of (set, options) and are rebuilt whenever those
	// inputs differ, and the solver and scratch are fully re-initialized
	// by each solve. An Arena must not be shared by concurrent solves.
	Arena *Arena
}

// Arena is the reusable column-pool state of Options.Arena. Its zero value
// is ready; see DESIGN.md §9 for the arena lifetime rules.
type Arena struct {
	set      *segment.Set
	dropDead bool
	// channels/memory are the capacity overrides in effect when the tables
	// were built; they only affect the tables when dropDead is set (dead
	// candidates are excluded from the column space), so they are only
	// compared then.
	channels []int
	memory   []int

	tables *tables
	price  []*priceScratch
	// solver is the master of the previous solve, Reset for the next one
	// so B⁻¹ and the pivot scratch are allocated once per arena.
	solver *lp.PackingSolver
}

// tablesValid reports whether the arena's cached tables were built from
// exactly the inputs the current solve would use.
func (a *Arena) tablesValid(set *segment.Set, opts Options) bool {
	if a.set != set || a.tables == nil || a.dropDead != opts.DropDeadLinks {
		return false
	}
	if !a.dropDead {
		return true
	}
	// nil (the network's tables) never matches an explicit override.
	return (a.channels == nil) == (opts.Channels == nil) && slices.Equal(a.channels, opts.Channels) &&
		(a.memory == nil) == (opts.Memory == nil) && slices.Equal(a.memory, opts.Memory)
}

func (o Options) withDefaults(set *segment.Set) Options {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 120
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-7
	}
	if o.MaxJunctions <= 0 {
		o.MaxJunctions = 14
	}
	if o.ConnCap == nil {
		o.ConnCap = make([]int, len(set.Pairs))
		for i, sd := range set.Pairs {
			o.ConnCap[i] = min(set.Net.Memory[sd.S], set.Net.Memory[sd.D])
		}
	}
	return o
}

// tables are the dual-independent data of one solve's inputs: the master's
// row layout, the per-candidate attempt factors and rows, and the layered
// pricing's per-node and per-commodity tables. They are pure functions of
// (set, DropDeadLinks overrides, MaxJunctions), so an Arena replays them
// across solves, and pricing rounds touch no maps and recompute no factors.
type tables struct {
	// linkRow[id] is the master row of physical link id and memRow[v] the
	// memory row of node v, −1 when no candidate uses the link or ends at
	// the node. Rows run commodities, used links, used endpoints.
	linkRow []int32
	memRow  []int32
	numRows int

	// Aligned with set.ByEdge[edgeID]: factors[edgeID][k] is the attempt
	// factor 1/(p·√(q_u·q_v)) (+Inf for a dropped candidate) and
	// candLinkRows[edgeID][k] the master rows of the candidate's physical
	// links. pairMemRows[edgeID] holds the memory rows of the edge's two
	// endpoints.
	factors      [][]float64
	candLinkRows [][][]int32
	pairMemRows  [][2]int32

	// Swap-weighted objective only, built on first use. negLogQ[v] caches
	// −ln(SwapProb[v]) (+Inf at q ≤ 0). uniformQ: every node has the same
	// q, with −ln q ≥ 0. reach holds each commodity's unpruned frontier
	// order for reachHops layers (reachOrder).
	negLogQ   []float64
	uniformQ  bool
	reach     []reachOrder
	reachHops int
}

// model is one solve: its options, tables, master and round state.
type model struct {
	set    *segment.Set
	opts   Options
	solver *lp.PackingSolver
	*tables

	// pruneDominated is uniformQ and no negative priced arc cost this
	// round: the two conditions under which layeredPrice prunes dominated
	// states.
	pruneDominated bool

	// Per segment edge, recomputed each round: the cheapest realization
	// under current duals, its cost, its attempt factor and its index in
	// the ByEdge list (the compact column-key component).
	bestCost    []float64
	bestCand    []*segment.Candidate
	bestCandIdx []int32
	bestFactor  []float64
	// edgeCost reads bestCost as the plain pricing search's edge weight.
	edgeCost func(id int, stored float64) float64

	colKeys colKeySet
	columns []column
	entries []lp.Entry

	// Per-worker pricing scratch (index = worker id from par.ForWorker, so
	// no two goroutines share a buffer).
	price []*priceScratch
}

type column struct {
	commodity int
	hops      []SegHop
	nodes     graph.Path
}

// pricedPath is one commodity's pricing result for a round, produced in a
// per-commodity slot by the parallel phase and inserted serially.
type pricedPath struct {
	nodes   graph.Path
	edgeIDs []int
	weight  float64
	ok      bool
}

// colKeySet deduplicates generated columns by their identity key — the
// commodity followed by (edge ID, realization index) per hop — stored as
// compact integer slices hashed with FNV-1a (the previous implementation
// built throwaway fmt.Fprintf strings per candidate per round).
type colKeySet struct {
	buckets map[uint64][][]int32
}

// add inserts the key and reports whether it was new.
func (s *colKeySet) add(k []int32) bool {
	if s.buckets == nil {
		s.buckets = make(map[uint64][][]int32)
	}
	h := uint64(14695981039346656037)
	for _, v := range k {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	for _, ex := range s.buckets[h] {
		if len(ex) != len(k) {
			continue
		}
		same := true
		for i := range ex {
			if ex[i] != k[i] {
				same = false
				break
			}
		}
		if same {
			return false
		}
	}
	s.buckets[h] = append(s.buckets[h], k)
	return true
}

// Solve runs column generation to LP optimality (or MaxRounds).
func Solve(set *segment.Set, opts Options) (*Solution, error) {
	return SolveCtx(nil, set, opts)
}

// SolveCtx is Solve bounded by a context (nil = never cancelled). The
// deadline is honored at every stage of the column-generation loop — master
// pivots (lp.SolveCtx), realization pricing and path pricing (par.*Ctx) —
// so an expired slot budget aborts the solve promptly with ctx.Err()
// instead of finishing the round. A cancelled solve returns no Solution;
// the degradation ladder in internal/engines falls back to the greedy
// engine when that happens.
func SolveCtx(ctx context.Context, set *segment.Set, opts Options) (*Solution, error) {
	m, err := newModel(set, opts)
	if err != nil {
		return nil, err
	}
	return m.run(ctx)
}

// newModel validates the options and builds the row layout, the candidate
// tables and the all-slack master.
func newModel(set *segment.Set, opts Options) (*model, error) {
	if set == nil {
		return nil, errors.New("flow: nil segment set")
	}
	opts = opts.withDefaults(set)
	if len(opts.ConnCap) != len(set.Pairs) {
		return nil, fmt.Errorf("flow: ConnCap has %d entries for %d pairs", len(opts.ConnCap), len(set.Pairs))
	}

	m := &model{set: set, opts: opts}
	m.edgeCost = func(id int, _ float64) float64 { return m.bestCost[id] }
	m.buildTables()
	var err error
	if a := opts.Arena; a != nil && a.solver != nil {
		m.solver = a.solver
		err = m.solver.Reset(m.rhs())
	} else {
		m.solver, err = lp.NewPacking(m.rhs())
		if a != nil && err == nil {
			a.solver = m.solver
		}
	}
	if err != nil {
		return nil, fmt.Errorf("flow: building master: %w", err)
	}
	return m, nil
}

// run is the column-generation loop of SolveCtx.
func (m *model) run(ctx context.Context) (*Solution, error) {
	set, opts := m.set, m.opts
	priced := make([]pricedPath, len(set.Pairs))

	// Seed with resource-greedy columns: price under uniform unit duals so
	// initial paths already prefer cheap, reliable segments.
	if err := m.priceRealizations(ctx, unitDuals(m.numRows)); err != nil {
		return nil, fmt.Errorf("flow: seed pricing: %w", err)
	}
	if err := m.priceColumns(ctx, nil, opts.Epsilon, priced); err != nil {
		return nil, fmt.Errorf("flow: seed pricing: %w", err)
	}
	for i := range set.Pairs {
		m.insertColumn(i, &priced[i])
	}

	rounds := 0
	for ; rounds < opts.MaxRounds; rounds++ {
		status, err := m.solver.SolveCtx(ctx)
		if err != nil {
			return nil, fmt.Errorf("flow: master solve: %w", err)
		}
		if status != lp.StatusOptimal {
			return m.extract(status, rounds), nil
		}
		duals := m.solver.Duals()
		if err := m.priceRealizations(ctx, duals); err != nil {
			return nil, fmt.Errorf("flow: pricing round %d: %w", rounds, err)
		}
		if err := m.priceColumns(ctx, duals, opts.Epsilon, priced); err != nil {
			return nil, fmt.Errorf("flow: pricing round %d: %w", rounds, err)
		}
		added := 0
		for i := range set.Pairs {
			// Add the path iff its reduced cost w_P − dual_i − cost > ε.
			if m.insertColumn(i, &priced[i]) {
				added++
			}
		}
		if added == 0 {
			return m.extract(lp.StatusOptimal, rounds+1), nil
		}
	}
	// Ran out of rounds: return the incumbent as a near-optimal solution.
	return m.extract(lp.StatusIterLimit, rounds), nil
}

// buildTables resolves the solve's tables: replayed from the arena when it
// holds tables for the same inputs (bit-identical to rebuilding), built
// otherwise. The swap-weighted pricing's tables are added on first use.
func (m *model) buildTables() {
	n := len(m.set.EdgePairs)
	m.bestCost = make([]float64, n)
	m.bestCand = make([]*segment.Candidate, n)
	m.bestCandIdx = make([]int32, n)
	m.bestFactor = make([]float64, n)
	a := m.opts.Arena
	if a != nil && a.tablesValid(m.set, m.opts) {
		m.tables = a.tables
	} else {
		m.tables = &tables{}
		m.layoutRows()
		m.buildCandidateTables()
		if a != nil {
			a.set = m.set
			a.dropDead = m.opts.DropDeadLinks
			a.channels = append(a.channels[:0], m.opts.Channels...)
			a.memory = append(a.memory[:0], m.opts.Memory...)
			if m.opts.Channels == nil {
				a.channels = nil
			}
			if m.opts.Memory == nil {
				a.memory = nil
			}
			a.tables = m.tables
		}
	}
	if m.opts.SwapWeightedObjective {
		if m.negLogQ == nil {
			m.buildNegLogQ()
		}
		if hops := m.opts.MaxJunctions + 1; m.reach == nil || m.reachHops != hops {
			m.buildReach(hops)
		}
	}
	if a != nil {
		m.price = a.price
	}
}

// layoutRows assigns row indices: commodities, used links, used endpoints.
func (m *model) layoutRows() {
	m.linkRow = make([]int32, m.set.Net.NumLinks())
	m.memRow = make([]int32, m.set.Net.NumNodes())
	for i := range m.linkRow {
		m.linkRow[i] = -1
	}
	for i := range m.memRow {
		m.memRow[i] = -1
	}
	row := len(m.set.Pairs)
	for _, id := range m.set.UsedLinks() {
		m.linkRow[id] = int32(row)
		row++
	}
	for _, u := range m.set.UsedEndpoints() {
		m.memRow[u] = int32(row)
		row++
	}
	m.numRows = row
}

// buildCandidateTables precomputes the dual-independent per-candidate data:
// attempt factors and master-row indices. The pricing loop runs every round
// under fresh duals, but these never change, so they are resolved exactly
// once here.
func (m *model) buildCandidateTables() {
	n := len(m.set.EdgePairs)
	m.factors = make([][]float64, n)
	m.candLinkRows = make([][][]int32, n)
	m.pairMemRows = make([][2]int32, n)
	dead := func(c *segment.Candidate) bool { return false }
	if m.opts.DropDeadLinks {
		channels := m.opts.Channels
		if channels == nil {
			channels = m.set.Net.Channels
		}
		memory := m.opts.Memory
		if memory == nil {
			memory = m.set.Net.Memory
		}
		dead = func(c *segment.Candidate) bool {
			for _, e := range c.EdgeIDs {
				if channels[e] <= 0 {
					return true
				}
			}
			return memory[c.Path[0]] <= 0 || memory[c.Path[len(c.Path)-1]] <= 0
		}
	}
	for id, pk := range m.set.EdgePairs {
		list := m.set.ByEdge[id]
		fs := make([]float64, len(list))
		rows := make([][]int32, len(list))
		for k, c := range list {
			if dead(c) {
				// Forecast-dead realization: excluded from the column space.
				fs[k] = math.Inf(1)
			} else {
				fs[k] = segment.AttemptFactor(m.set.Net, c)
			}
			lr := make([]int32, len(c.EdgeIDs))
			for h, e := range c.EdgeIDs {
				lr[h] = m.linkRow[e]
			}
			rows[k] = lr
		}
		m.factors[id] = fs
		m.candLinkRows[id] = rows
		m.pairMemRows[id] = [2]int32{m.memRow[pk.U], m.memRow[pk.V]}
	}
}

func (m *model) buildNegLogQ() {
	m.negLogQ = make([]float64, m.set.Net.NumNodes())
	for v, q := range m.set.Net.SwapProb {
		if q <= 0 {
			m.negLogQ[v] = math.Inf(1)
		} else {
			m.negLogQ[v] = -math.Log(q)
		}
	}
	m.uniformQ = len(m.negLogQ) > 0 && m.negLogQ[0] >= 0
	for _, c := range m.negLogQ {
		m.uniformQ = m.uniformQ && c == m.negLogQ[0]
	}
}

func (m *model) rhs() []float64 {
	channels := m.opts.Channels
	if channels == nil {
		channels = m.set.Net.Channels
	}
	memory := m.opts.Memory
	if memory == nil {
		memory = m.set.Net.Memory
	}
	b := make([]float64, m.numRows)
	for i, cap := range m.opts.ConnCap {
		b[i] = float64(cap)
	}
	for id, row := range m.linkRow {
		if row >= 0 {
			b[row] = maxf(0, float64(channels[id]))
		}
	}
	for u, row := range m.memRow {
		if row >= 0 {
			b[row] = maxf(0, float64(memory[u]))
		}
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func unitDuals(n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		y[i] = 1
	}
	return y
}

// priceRealizations computes, per segment edge, the cheapest realization
// cost under the duals: factor · (Σ link duals + endpoint memory duals),
// and decides whether this round's layered pricing prunes dominated states.
// Edges are priced in parallel; each index writes only its own slots, so
// the result is independent of the worker count. A cancelled ctx aborts
// the scan and returns ctx.Err(); the partially written slots are
// discarded by the caller.
func (m *model) priceRealizations(ctx context.Context, duals []float64) error {
	err := par.ForCtx(ctx, m.opts.Workers, len(m.set.EdgePairs), func(id int) {
		best := math.Inf(1)
		bestK := -1
		mr := m.pairMemRows[id]
		memDual := duals[mr[0]] + duals[mr[1]]
		fs := m.factors[id]
		for k, rows := range m.candLinkRows[id] {
			f := fs[k]
			if math.IsInf(f, 1) {
				continue
			}
			sum := memDual
			for _, r := range rows {
				sum += duals[r]
			}
			// A tiny per-segment epsilon keeps degenerate all-zero-dual
			// rounds from returning needlessly long paths.
			cost := f * (sum + 1e-9)
			if cost < best {
				best = cost
				bestK = k
			}
		}
		// Carry-aware bias: edges covered by banked inventory price
		// cheaper (both the plain Dijkstra and the layered DP read
		// bestCost, so this is the single application point).
		if cw := m.opts.CarryWeights; id < len(cw) && cw[id] > 1 {
			best /= cw[id]
		}
		m.bestCost[id] = best
		m.bestCandIdx[id] = int32(bestK)
		if bestK >= 0 {
			m.bestCand[id] = m.set.ByEdge[id][bestK]
			m.bestFactor[id] = fs[bestK]
		} else {
			m.bestCand[id] = nil
			m.bestFactor[id] = math.Inf(1)
		}
	})
	// bestCost is never NaN (a NaN cost never beats the +Inf start).
	m.pruneDominated = m.uniformQ && !slices.ContainsFunc(m.bestCost, func(c float64) bool { return c < 0 })
	return err
}

// priceColumns runs the per-commodity pricing oracle for every SD pair into
// the per-commodity slots of out. duals == nil is the seeding round (every
// finite path qualifies). Commodities are priced in parallel; each worker
// uses its own pricing scratch and writes only its commodity's slot.
// A cancelled ctx aborts the pricing and returns ctx.Err().
func (m *model) priceColumns(ctx context.Context, duals []float64, eps float64, out []pricedPath) error {
	n := len(m.set.Pairs)
	if need := par.Resolve(m.opts.Workers, n); len(m.price) < need {
		// May hold a shorter arena-carried slice from a solve with fewer
		// workers; keep the existing scratches and grow.
		m.price = append(m.price, make([]*priceScratch, need-len(m.price))...)
		if a := m.opts.Arena; a != nil {
			a.price = m.price
		}
	}
	return par.ForWorkerCtx(ctx, m.opts.Workers, n, func(w, i int) {
		dualI := math.Inf(-1)
		if duals != nil {
			dualI = duals[i]
		}
		out[i] = m.pricePath(w, i, dualI, eps)
	})
}

// pricePath finds commodity i's best path under the current edge prices.
// dualI = −Inf forces seeding (any finite-cost path qualifies).
func (m *model) pricePath(w, i int, dualI, eps float64) pricedPath {
	if m.price[w] == nil {
		m.price[w] = &priceScratch{}
	}
	ps := m.price[w]
	if m.opts.SwapWeightedObjective {
		nodes, edgeIDs, weight := m.layeredPrice(ps, i, dualI, eps)
		return pricedPath{nodes: nodes, edgeIDs: edgeIDs, weight: weight, ok: nodes != nil}
	}
	// The targeted search returns exactly the full Dijkstra's path, edges
	// and distance to sd.D (graph.ShortestPathEdgesTarget).
	sd := m.set.Pairs[i]
	nodes, edgeIDs, dist := graph.ShortestPathEdgesTarget(m.set.SegGraph, sd.S, sd.D,
		graph.DijkstraOptions{EdgeWeight: m.edgeCost}, &ps.dijkstra)
	if dist == graph.Unreachable || 1-dualI-dist <= eps {
		return pricedPath{}
	}
	return pricedPath{nodes: nodes, edgeIDs: edgeIDs, weight: 1, ok: true}
}

// insertColumn adds commodity i's priced path to the master unless it is a
// duplicate or unusable. Insertion runs serially in commodity order, so the
// master's column sequence does not depend on the pricing worker count.
func (m *model) insertColumn(i int, pp *pricedPath) bool {
	if !pp.ok || pp.nodes == nil {
		return false
	}
	hops := make([]SegHop, len(pp.edgeIDs))
	key := make([]int32, 0, 1+2*len(pp.edgeIDs))
	key = append(key, int32(i))
	for h, id := range pp.edgeIDs {
		cand := m.bestCand[id]
		if cand == nil {
			return false
		}
		hops[h] = SegHop{Pair: m.set.EdgePairs[id], Edge: id, Cand: cand}
		key = append(key, int32(id), m.bestCandIdx[id])
	}
	if !m.colKeys.add(key) {
		return false
	}

	entries := m.columnEntries(i, pp.edgeIDs)
	if entries == nil {
		return false
	}
	if _, err := m.solver.AddColumn(pp.weight, entries); err != nil {
		return false
	}
	m.columns = append(m.columns, column{commodity: i, hops: hops, nodes: pp.nodes})
	return true
}

// columnEntries builds the sparse resource footprint of a path column from
// the cached per-candidate rows and factors of the round's best
// realizations: one entry per (row, factor) in edge order, into a buffer
// reused across columns (AddColumn copies it). A row hit by several hops
// repeats; AddColumn stable-sorts by row and sums repeats in input order,
// so each row's value is accumulated in edge order.
func (m *model) columnEntries(i int, edgeIDs []int) []lp.Entry {
	entries := append(m.entries[:0], lp.Entry{Index: i, Value: 1})
	for _, id := range edgeIDs {
		f := m.bestFactor[id]
		if math.IsInf(f, 1) {
			return nil
		}
		for _, r := range m.candLinkRows[id][m.bestCandIdx[id]] {
			entries = append(entries, lp.Entry{Index: int(r), Value: f})
		}
		mr := m.pairMemRows[id]
		entries = append(entries, lp.Entry{Index: int(mr[0]), Value: f}, lp.Entry{Index: int(mr[1]), Value: f})
	}
	m.entries = entries
	return entries
}

func (m *model) extract(status lp.Status, rounds int) *Solution {
	sol := &Solution{
		Status:       status,
		Objective:    m.solver.Objective(),
		PerCommodity: make([]float64, len(m.set.Pairs)),
		Rounds:       rounds,
		Columns:      len(m.columns),
	}
	primals := m.solver.Primals()
	for j, v := range primals {
		if v <= 1e-9 {
			continue
		}
		col := m.columns[j]
		sol.PerCommodity[col.commodity] += v
		sol.Paths = append(sol.Paths, PathFlow{
			Commodity: col.commodity,
			Hops:      col.hops,
			Nodes:     col.nodes,
			Flow:      v,
		})
	}
	return sol
}
