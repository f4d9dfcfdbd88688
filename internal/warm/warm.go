// Package warm memoizes the expensive planning artifacts of engine
// construction — segment sets (segment.Build) and LP solutions
// (flow.SolveCtx) — across scheduler (re)builds over the same network.
//
// # Why a cache is the warm start
//
// Every engine in this codebase plans once, at construction: segment
// enumeration followed by column-generation LP solving. The per-slot loop
// never re-solves the LP, so the dominant cost of "the next slot" in any
// workload that rebuilds schedulers (benchmarks, service restarts, REPS's
// progressive re-rounding, resilience retries) is re-deriving planning
// artifacts that are pure functions of (network, pairs, options). Replaying
// the memoized artifact is therefore byte-identical to a cold build by
// construction — the strongest possible form of the warm≡cold invariant —
// whereas carrying a simplex basis between solves could land on a different
// optimal vertex and silently change downstream rounding. DESIGN.md §9
// documents this trade in full.
//
// # Keying and invalidation
//
// Entries are keyed by the *topo.Network pointer plus the full content of
// the pairs and options (less Workers: enumeration is deterministic at any
// worker count), and each entry records the network's content
// fingerprint (topo.Fingerprint) at build time. Lookups re-verify the
// fingerprint, so mutating a network in place between builds forces a cold
// rebuild — the cache can go stale in time but never in content. Lookup is
// a linear scan with full equality comparison; no hash is trusted for
// correctness.
//
// LP solutions are keyed by the *segment.Set pointer (sets themselves come
// from this cache, so the pointer is canonical) plus every option field
// that affects the solve. Workers is excluded: the solver is deterministic
// at any worker count. Arena is excluded: it is reusable scratch, not an
// input.
//
// # What is NOT cached
//
// Budgeted construction (a non-nil context) bypasses the cache entirely —
// no lookup, no insert, no stats — so degradation behavior under
// -slot-budget is exactly what it would be without a cache. SegmentSet and
// Solve make that decision themselves, and a nil *Cache builds cold the
// same way, so internal/engines (segment sets) and the LP engines
// (solutions) call them unconditionally.
//
// All returned artifacts are shared and must be treated as immutable,
// which they already are everywhere in the engine layer.
package warm

import (
	"context"
	"slices"
	"sync"

	"see/internal/flow"
	"see/internal/segment"
	"see/internal/topo"
)

// Stats counts cache traffic. Hits replay a memoized artifact; misses fall
// through to a cold build. The benchmark reports them as warm.hits and
// warm.misses.
type Stats struct {
	// SetHits / SetMisses count segment.Build memoization traffic.
	SetHits, SetMisses uint64
	// SolveHits / SolveMisses count flow.SolveCtx memoization traffic.
	SolveHits, SolveMisses uint64
	// Invalidations counts lookups rejected because the network's content
	// fingerprint changed since the entry was built (each also counts as
	// a miss).
	Invalidations uint64
}

// Cache memoizes segment sets and LP solutions. The zero value is NOT
// ready; use New. A Cache is safe for concurrent use; cold builds run
// outside the lock, so concurrent misses may build the same artifact twice
// (both results are identical, the first inserted wins and becomes
// canonical).
type Cache struct {
	mu     sync.Mutex
	sets   []setEntry
	solves []solveEntry
	stats  Stats
}

// New returns an empty cache.
func New() *Cache { return &Cache{} }

type setEntry struct {
	net   *topo.Network
	fp    uint64
	pairs []topo.SDPair
	opts  segment.Options
	set   *segment.Set
}

type solveEntry struct {
	set *segment.Set
	key solveKey
	sol *flow.Solution
}

// solveKey is the by-value copy of every flow.Options field that affects
// the solve result. Workers and Arena are deliberately absent (see the
// package comment).
type solveKey struct {
	maxRounds             int
	dropDeadLinks         bool
	swapWeightedObjective bool
	maxJunctions          int
	connCap               []int
	channels              []int
	memory                []int
	carryWeights          []float64
}

func makeSolveKey(o flow.Options) solveKey {
	return solveKey{
		maxRounds:             o.MaxRounds,
		dropDeadLinks:         o.DropDeadLinks,
		swapWeightedObjective: o.SwapWeightedObjective,
		maxJunctions:          o.MaxJunctions,
		connCap:               slices.Clone(o.ConnCap),
		channels:              slices.Clone(o.Channels),
		memory:                slices.Clone(o.Memory),
		carryWeights:          slices.Clone(o.CarryWeights),
	}
}

func (k solveKey) equal(o solveKey) bool {
	return k.maxRounds == o.maxRounds &&
		k.dropDeadLinks == o.dropDeadLinks &&
		k.swapWeightedObjective == o.swapWeightedObjective &&
		k.maxJunctions == o.maxJunctions &&
		sameSlice(k.connCap, o.connCap) &&
		sameSlice(k.channels, o.channels) &&
		sameSlice(k.memory, o.memory) &&
		sameSlice(k.carryWeights, o.carryWeights)
}

// sameSlice is slices.Equal that also tells nil from empty: a nil override
// means "derive defaults" (or, for carry weights, "no bias") to the solver
// and must not collide with an explicit empty one. slices.Clone keeps the
// distinction, so keys built from the same options compare equal.
func sameSlice[T comparable](a, b []T) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// SegmentSet returns the memoized segment set for (net, pairs, opts),
// building it cold on a miss. A nil cache or a non-nil ctx (budgeted
// construction) builds cold through segment.Build and touches no stats.
// The returned set is shared: callers must treat it as immutable
// (segment.Set already is after Build).
func (c *Cache) SegmentSet(ctx context.Context, net *topo.Network, pairs []topo.SDPair, opts segment.Options) (*segment.Set, error) {
	if c == nil || ctx != nil {
		return segment.Build(net, pairs, opts)
	}
	fp := topo.Fingerprint(net)
	key := opts
	key.Workers = 0

	c.mu.Lock()
	for i := range c.sets {
		e := &c.sets[i]
		if e.net != net || e.opts != key || !slices.Equal(e.pairs, pairs) {
			continue
		}
		if e.fp != fp {
			// Same pointer, different content: the network was mutated in
			// place. Invalidate so the stale plan can never be replayed.
			c.stats.Invalidations++
			c.sets = append(c.sets[:i], c.sets[i+1:]...)
			break
		}
		c.stats.SetHits++
		set := e.set
		c.mu.Unlock()
		return set, nil
	}
	c.stats.SetMisses++
	c.mu.Unlock()

	set, err := segment.Build(net, pairs, opts)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	// Re-check: a concurrent miss may have inserted the same entry while we
	// built. Return the existing set so the pointer stays canonical (the
	// LP-solution cache keys on it).
	for i := range c.sets {
		e := &c.sets[i]
		if e.net == net && e.fp == fp && e.opts == key && slices.Equal(e.pairs, pairs) {
			return e.set, nil
		}
	}
	c.sets = append(c.sets, setEntry{net: net, fp: fp, pairs: slices.Clone(pairs), opts: key, set: set})
	return set, nil
}

// Solve returns the memoized LP solution for (set, opts), solving cold on
// a miss. A nil cache or a non-nil ctx (budgeted construction) solves cold
// through flow.SolveCtx(ctx, ...) and touches no stats, so timeout
// behavior is cache-independent. The returned solution is shared and
// immutable.
func (c *Cache) Solve(ctx context.Context, set *segment.Set, opts flow.Options) (*flow.Solution, error) {
	if c == nil || ctx != nil {
		return flow.SolveCtx(ctx, set, opts)
	}
	key := makeSolveKey(opts)

	c.mu.Lock()
	for i := range c.solves {
		e := &c.solves[i]
		if e.set == set && e.key.equal(key) {
			c.stats.SolveHits++
			sol := e.sol
			c.mu.Unlock()
			return sol, nil
		}
	}
	c.stats.SolveMisses++
	c.mu.Unlock()

	sol, err := flow.SolveCtx(nil, set, opts)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.solves {
		e := &c.solves[i]
		if e.set == set && e.key.equal(key) {
			return e.sol, nil
		}
	}
	c.solves = append(c.solves, solveEntry{set: set, key: key, sol: sol})
	return sol, nil
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
